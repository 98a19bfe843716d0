// Copyright 2026 The ccr Authors.
//
// bank_contended: the paper's own setting. Eight hot BankAccounts, four
// under UIP+NRBC and four under DU+NFC (the only pairings Theorems 9 and 10
// allow), driven closed loop by kClients threads on the direct
// Begin/Execute/Commit path of a volatile engine (no journal, no history
// recording). Latency runs from Begin until Commit returns, retries
// included.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adt/bank_account.h"
#include "core/conflict_relation.h"
#include "txn/du_recovery.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 7;
constexpr size_t kOpeningTxns = 300'000;
constexpr int kClients = 3;
constexpr int kMaxAttempts = 1000;
constexpr uint64_t kWindowNs = 250'000'000;

struct Bank {
  std::unique_ptr<ccr::TxnManager> manager;
  std::vector<std::shared_ptr<ccr::BankAccount>> accounts;
  std::vector<int64_t> opening;  // balances after the opening history
};

// Builds the engine and replays the seeded opening history through one
// client. Returns false (with `error`) on any engine error.
bool SetUp(uint64_t seed, Bank* bank, std::string* error) {
  ccr::TxnManagerOptions options;
  options.record_history = false;
  bank->manager = std::make_unique<ccr::TxnManager>(options);
  for (int a = 0; a < kBankAccounts; ++a) {
    auto acct = ccr::MakeBankAccount(AccountName(a));
    if (a < kUipAccounts) {
      bank->manager->AddObject(acct->object_name(), acct,
                               ccr::MakeNrbcConflict(acct),
                               std::make_unique<ccr::UipRecovery>(acct));
    } else {
      bank->manager->AddObject(acct->object_name(), acct,
                               ccr::MakeNfcConflict(acct),
                               std::make_unique<ccr::DuRecovery>(acct));
    }
    bank->accounts.push_back(std::move(acct));
  }
  bank->opening.assign(kBankAccounts, 0);
  for (const OpeningOp& op : MakeOpeningHistory(seed, kOpeningTxns)) {
    const ccr::BankAccount& acct = *bank->accounts[op.account];
    const std::shared_ptr<ccr::Transaction> txn = bank->manager->Begin();
    auto r = bank->manager->Execute(
        txn.get(), op.deposit ? acct.DepositInv(op.amount)
                              : acct.WithdrawInv(op.amount));
    if (!r.ok() || !bank->manager->Commit(txn.get()).ok()) {
      *error = "opening history: " + r.status().ToString();
      return false;
    }
    if (op.deposit) {
      bank->opening[op.account] += op.amount;
    } else if (r->AsString() == "ok") {
      bank->opening[op.account] -= op.amount;
    }
  }
  return true;
}

// What the clients share.
struct Shared {
  Bank* bank = nullptr;
  Tracer* tracer = nullptr;
  uint64_t seed = 0;
  uint64_t start_ns = 0;
  uint64_t deadline_ns = 0;
  std::atomic<uint64_t> next_request{0};
  std::atomic<uint64_t> committed{0};
  // Committed balance changes per account.
  std::vector<std::atomic<int64_t>> ledger =
      std::vector<std::atomic<int64_t>>(kBankAccounts);
};

struct ClientResult {
  uint64_t logical = 0;
  uint64_t committed = 0;
  uint64_t voluntary_aborts = 0;
  uint64_t retries = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t end_ns = 0;
  WindowedLatency latency;
};

enum class Outcome { kCommitted, kVoluntaryAbort, kRetry, kFailed };

// One attempt of `t`. On kCommitted, `deltas` holds the account changes.
Outcome Attempt(Shared* sh, const BankTxn& t, uint64_t parent, uint64_t req,
                Tracer* tracer, int64_t deltas[2], bool* wrong) {
  ccr::TxnManager& m = *sh->bank->manager;
  const ccr::BankAccount& from = *sh->bank->accounts[t.from];
  const ccr::BankAccount& to = *sh->bank->accounts[t.to];
  std::shared_ptr<ccr::Transaction> txn;
  {
    ScopedSpan s(tracer, "txn.begin", parent, req);
    txn = m.Begin();
  }
  const auto execute = [&](const ccr::Invocation& inv) {
    ScopedSpan s(tracer, "txn.execute", parent, req);
    return m.Execute(txn.get(), inv);
  };
  const auto abort = [&]() {
    ScopedSpan s(tracer, "txn.abort", parent, req);
    (void)m.Abort(txn.get());
  };
  deltas[0] = deltas[1] = 0;
  if (t.kind == BankTxn::kBalance) {
    auto v = execute(from.BalanceInv());
    if (!v.ok()) {
      abort();
      return v.status().IsRetryable() ? Outcome::kRetry : Outcome::kFailed;
    }
    if (v->AsInt() < 0) *wrong = true;
  } else {
    auto w = execute(from.WithdrawInv(t.amount));
    if (!w.ok()) {
      abort();
      return w.status().IsRetryable() ? Outcome::kRetry : Outcome::kFailed;
    }
    if (t.kind == BankTxn::kAbortTransfer) {
      abort();
      return Outcome::kVoluntaryAbort;
    }
    if (w->AsString() == "ok") {
      auto d = execute(to.DepositInv(t.amount));
      if (!d.ok()) {
        abort();
        return d.status().IsRetryable() ? Outcome::kRetry : Outcome::kFailed;
      }
      deltas[0] = -t.amount;
      deltas[1] = t.amount;
    }
  }
  ccr::Status c;
  {
    ScopedSpan s(tracer, "txn.commit", parent, req);
    c = m.Commit(txn.get());
  }
  if (!c.ok()) return c.IsRetryable() ? Outcome::kRetry : Outcome::kFailed;
  return Outcome::kCommitted;
}

void RunClient(Shared* sh, int client, ClientResult* out) {
  Rng rng(StreamSeed(sh->seed, 10 + static_cast<uint64_t>(client)));
  while (NowNs() < sh->deadline_ns) {
    const BankTxn t = NextBankTxn(&rng);
    const uint64_t req = sh->next_request.fetch_add(1);
    Tracer* tracer =
        sh->tracer != nullptr && sh->tracer->Sampled(req) ? sh->tracer : nullptr;
    ProbeDirectory(sh->bank->manager.get(), tracer, AccountName(t.from));
    ++out->logical;
    const uint64_t t0 = NowNs();
    Outcome outcome = Outcome::kFailed;
    int64_t deltas[2] = {0, 0};
    bool wrong = false;
    {
      ScopedSpan span(tracer, "txn", 0, req);
      for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
        outcome = Attempt(sh, t, span.id(), req, tracer, deltas, &wrong);
        if (outcome != Outcome::kRetry) break;
        ++out->retries;
        std::this_thread::yield();
      }
    }
    const uint64_t t1 = NowNs();
    if (wrong) ++out->wrong;
    switch (outcome) {
      case Outcome::kCommitted:
        ++out->committed;
        sh->committed.fetch_add(1, std::memory_order_relaxed);
        sh->ledger[t.from] += deltas[0];
        sh->ledger[t.to] += deltas[1];
        out->latency.Record((t1 - sh->start_ns) / kWindowNs, t1 - t0);
        break;
      case Outcome::kVoluntaryAbort:
        ++out->voluntary_aborts;
        break;
      case Outcome::kRetry:
      case Outcome::kFailed:
        ++out->failed;
        break;
    }
    out->end_ns = t1;
  }
}

}  // namespace

PhaseResult RunBankContended(const RunConfig& cfg) {
  PhaseResult result;
  std::vector<double> setup_s;
  std::unique_ptr<Bank> bank;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    bank.reset();
    bank = std::make_unique<Bank>();
    std::string error;
    const uint64_t t0 = NowNs();
    if (!SetUp(cfg.seed, bank.get(), &error)) {
      result.Fail(error);
      return result;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  Shared sh;
  sh.bank = bank.get();
  sh.tracer = cfg.tracer;
  sh.seed = cfg.seed;
  const ccr::ManagerStats mgr0 = bank->manager->stats();
  std::vector<ClientResult> clients(kClients);
  const uint64_t cpu0 = ProcessCpuNs();
  sh.start_ns = NowNs();
  sh.deadline_ns = sh.start_ns + static_cast<uint64_t>(cfg.seconds * 1e9);
  WindowSampler sampler(&sh.committed, sh.start_ns, kWindowNs);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(RunClient, &sh, c, &clients[c]);
    }
    for (std::thread& th : threads) th.join();
  }
  sampler.Stop();
  const uint64_t cpu1 = ProcessCpuNs();
  const double rss_mb = PeakRssMb();

  WindowedLatency latency;
  ClientResult total;
  for (const ClientResult& c : clients) {
    latency.Merge(c.latency);
    total.logical += c.logical;
    total.committed += c.committed;
    total.voluntary_aborts += c.voluntary_aborts;
    total.retries += c.retries;
    total.failed += c.failed;
    total.wrong += c.wrong;
    total.end_ns = std::max(total.end_ns, c.end_ns);
  }
  const double wall_s =
      static_cast<double>(std::max(total.end_ns, sh.start_ns + 1) -
                          sh.start_ns) /
      1e9;
  const WindowedLatency::Summary lat = latency.Summarize();
  result.attempted = total.logical;
  result.failed = total.failed + total.wrong;
  if (!lat.ok) result.Fail("too few commits for a p99 window");
  SetEndToEnd(&result, Median(setup_s), rss_mb, sampler.MedianOpsPerSecond(),
              lat.p50_us, lat.p99_us, sampler.MedianCpuUsPerOp());
  result.notes.push_back("set-up seconds: " + JoinValues(setup_s));
  result.notes.push_back(
      "bank_contended: " + std::to_string(kClients) + " clients, " +
      std::to_string(total.logical) + " txns, " +
      std::to_string(total.committed) + " committed, " +
      std::to_string(total.voluntary_aborts) + " voluntary aborts, " +
      std::to_string(total.retries) + " retries, latency windows " +
      std::to_string(lat.windows) + " (min " +
      std::to_string(lat.min_window_samples) + " samples), " +
      std::to_string(lat.samples) + " samples");

  if (cfg.tracer != nullptr) {
    const ccr::ManagerStats mgr1 = bank->manager->stats();
    LayerTotals t;
    t.wall_s = wall_s;
    t.cpu_s = static_cast<double>(cpu1 - cpu0) / 1e9;
    t.ops = static_cast<double>(total.committed);
    t.txn_logical = static_cast<double>(total.logical);
    t.txn_retries = static_cast<double>(total.retries);
    t.txn_kills = static_cast<double>(mgr1.kills - mgr0.kills);
    t.AddObjects(bank->manager.get());
    EmitLayerMetrics(t, cfg.tracer->Collect(), &result);
  }

  // Correctness gates: each balance equals its ledger (opening balance plus
  // committed deposits minus committed ok-withdraws, so a voluntary abort
  // that left a trace shows), no balance is negative, and money is
  // conserved.
  int64_t opening_total = 0;
  int64_t final_total = 0;
  for (int a = 0; a < kBankAccounts; ++a) {
    const std::shared_ptr<ccr::Transaction> txn = bank->manager->Begin();
    auto v = bank->manager->Execute(txn.get(),
                                    bank->accounts[a]->BalanceInv());
    if (!v.ok() || !bank->manager->Commit(txn.get()).ok()) {
      result.Fail("final balance read of " + AccountName(a) + " failed");
      continue;
    }
    const int64_t expect = bank->opening[a] + sh.ledger[a].load();
    if (v->AsInt() != expect) {
      result.Fail(AccountName(a) + " balance " + std::to_string(v->AsInt()) +
                  " != ledger " + std::to_string(expect));
    }
    if (v->AsInt() < 0) result.Fail(AccountName(a) + " is negative");
    opening_total += bank->opening[a];
    final_total += v->AsInt();
  }
  if (opening_total != final_total) result.Fail("money not conserved");
  if (total.wrong > 0) result.Fail("negative balance read");
  return result;
}

}  // namespace perfbench
