// Copyright 2026 The ccr Authors.
//
// PERF-BATCH: batched multi-key transactions. A transaction touching B
// counters can run as B round-trips through Execute (B directory lookups,
// B mutex acquisitions, and — the dominant cost — B journal records framed,
// crc'd, and sequenced through the group-commit pipeline at commit), or as
// one ExecuteBatch call (one directory pass, one canonical-order lock
// sweep, ONE multi-object commit record, one durable-LSN watermark wait).
// This bench sweeps batch size x worker threads over a file-backed journal
// in kGroup mode and reports the speedup of the batched path over the
// loose baseline for the same transaction shape.
//
// Acceptance (ISSUE 8): at batch >= 32 on >= 8 threads, batched beats
// loose by >= 2x.
//
// `--smoke` runs a scaled-down functional pass instead: asserts the
// batched path journals exactly one record per transaction (vs B for the
// baseline), that both paths converge to identical counter sums, and runs
// a mini crash-restart audit (RunCrashScenario) checking multi-object
// records recover all-or-nothing. Exits 0 on success; used by CI under
// sanitizers, where throughput numbers are meaningless but the protocol
// still has to hold.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "adt/counter.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/temp_path.h"
#include "sim/crash_harness.h"
#include "sim/driver.h"
#include "txn/group_commit.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"

namespace ccr {
namespace {

using bench::AddCounterBank;
using bench::EngineConfig;

constexpr int kKeys = 256;

std::string TempWalPath() { return TempDirRoot() + "/ccr_bench_batch.wal"; }

// B distinct keys per transaction: a random window of consecutive ids in
// the bank (mod kKeys), so concurrent transactions overlap and contend.
std::vector<BatchOp> MakeBatch(
    const std::vector<std::shared_ptr<Counter>>& counters, int batch,
    Random* rng) {
  std::vector<BatchOp> ops;
  ops.reserve(static_cast<size_t>(batch));
  const size_t start = rng->Uniform(kKeys);
  for (int i = 0; i < batch; ++i) {
    const Counter& ctr = *counters[(start + static_cast<size_t>(i)) % kKeys];
    ops.push_back(BatchOp{ctr.object_name(), "", ctr.IncInv(1)});
  }
  return ops;
}

// A fresh engine over a file-backed journal in kGroup mode. Owns the
// moving parts so a cell tears down cleanly (pipeline drained before the
// journal/writer/sink die).
struct FileJournalSystem {
  static TxnManagerOptions ManagerOptions() {
    TxnManagerOptions options;
    options.record_history = false;  // perf run: no verification oracle
    return options;
  }

  explicit FileJournalSystem(const std::string& path)
      : manager(ManagerOptions()) {
    std::remove(path.c_str());
    auto opened = FileSink::Open(path);
    CCR_CHECK(opened.ok());
    sink = std::move(*opened);
    writer = std::make_unique<JournalWriter>(sink.get());
    pipeline = std::make_unique<GroupCommitPipeline>(
        writer.get(), GroupCommitOptions{DurabilityMode::kGroup});
    journal.set_pipeline(pipeline.get());
    counters = AddCounterBank(&manager, EngineConfig::kUipNrbc, kKeys);
    for (AtomicObject* obj : manager.objects()) {
      obj->recovery().set_journal(&journal);
    }
    manager.set_commit_pipeline(pipeline.get());
  }
  ~FileJournalSystem() { pipeline->Drain(); }

  std::unique_ptr<FileSink> sink;
  std::unique_ptr<JournalWriter> writer;
  std::unique_ptr<GroupCommitPipeline> pipeline;
  Journal journal;
  TxnManager manager;
  std::vector<std::shared_ptr<Counter>> counters;
};

struct CellResult {
  double txn_per_sec = 0;
  uint64_t records = 0;  // journal records the run produced
  uint64_t syncs = 0;    // sink Sync calls the pipeline issued
};

CellResult RunCellOnce(int threads, int txns_per_thread, int batch,
                       bool batched) {
  FileJournalSystem sys(TempWalPath());
  auto* counters = &sys.counters;
  const TxnBody body = [counters, batch, batched](
                           TxnManager* m, Transaction* txn,
                           Random* rng) -> Status {
    const std::vector<BatchOp> ops = MakeBatch(*counters, batch, rng);
    if (batched) {
      return m->ExecuteBatch(txn, ops).status();
    }
    for (const BatchOp& op : ops) {
      const StatusOr<Value> r = m->Execute(txn, op.inv);
      if (!r.ok()) return r.status();
    }
    return Status::OK();
  };
  DriverOptions options;
  options.threads = threads;
  options.txns_per_thread = txns_per_thread;
  const DriverResult result = RunWorkload(&sys.manager, body, options);
  sys.pipeline->Drain();
  return CellResult{result.throughput, sys.journal.high_lsn(),
                    sys.pipeline->stats().syncs};
}

// Median of three runs: fdatasync latency on a shared host is noisy, and
// one stalled sync can halve a single run's throughput.
CellResult RunCell(int threads, int txns_per_thread, int batch,
                   bool batched) {
  std::vector<CellResult> reps;
  for (int r = 0; r < 3; ++r) {
    reps.push_back(RunCellOnce(threads, txns_per_thread, batch, batched));
  }
  std::sort(reps.begin(), reps.end(),
            [](const CellResult& a, const CellResult& b) {
              return a.txn_per_sec < b.txn_per_sec;
            });
  return reps[1];
}

void BenchSweep() {
  std::printf(
      "scenario: PERF-BATCH — B-key transactions through a file-backed\n"
      "kGroup journal; `loose` journals B records per commit (one per\n"
      "object), `batched` journals ONE multi-object record and waits on\n"
      "the watermark once. %d-counter bank, UIP+NRBC.\n\n",
      kKeys);
  TablePrinter table({"threads", "batch", "loose txn/s", "batched txn/s",
                      "speedup", "recs l/b", "syncs l/b"});
  bool acceptance_seen = false;
  bool acceptance_met = true;
  int qualifying = 0;
  int qualifying_passed = 0;
  double min_speedup = 0;
  double max_speedup = 0;
  for (const int threads : {1, 8, 32}) {
    for (const int batch : {1, 8, 32, 128}) {
      const int txns = threads >= 32 ? 100 : (threads >= 8 ? 500 : 1000);
      const CellResult loose =
          RunCell(threads, txns, batch, /*batched=*/false);
      const CellResult batched =
          RunCell(threads, txns, batch, /*batched=*/true);
      const double speedup = loose.txn_per_sec > 0
                                 ? batched.txn_per_sec / loose.txn_per_sec
                                 : 0;
      table.AddRow(
          {StrFormat("%d", threads), StrFormat("%d", batch),
           StrFormat("%.0f", loose.txn_per_sec),
           StrFormat("%.0f", batched.txn_per_sec),
           StrFormat("%.2fx", speedup),
           StrFormat("%llu/%llu",
                     static_cast<unsigned long long>(loose.records),
                     static_cast<unsigned long long>(batched.records)),
           StrFormat("%llu/%llu",
                     static_cast<unsigned long long>(loose.syncs),
                     static_cast<unsigned long long>(batched.syncs))});
      if (batch >= 32 && threads >= 8) {
        acceptance_seen = true;
        ++qualifying;
        if (speedup >= 2.0) ++qualifying_passed;
        min_speedup = qualifying == 1 ? speedup : std::min(min_speedup, speedup);
        max_speedup = std::max(max_speedup, speedup);
        if (speedup < 2.0) acceptance_met = false;
      }
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "acceptance (every cell with batch>=32 and threads>=8 at >=2x): %s\n"
      "  qualifying cells >=2x: %d/%d (min %.2fx, max %.2fx)\n",
      acceptance_seen && acceptance_met ? "MET" : "NOT MET",
      qualifying_passed, qualifying, min_speedup, max_speedup);
  std::printf(
      "note: on a single-core host the t=8,b=32 cell alternates the\n"
      "workers' serial execute phase with the flusher's fdatasync instead\n"
      "of overlapping them, which caps its speedup near 2x even though the\n"
      "batched path issues ~3x fewer syncs (see the syncs column).\n");
}

// Functional smoke: protocol invariants that must hold in any build.
int RunSmoke() {
  // 1. Record economy: T transactions of B keys journal exactly T records
  //    batched and T*B records loose, and both leave the same sums.
  constexpr int kThreads = 4;
  constexpr int kTxns = 25;
  constexpr int kBatch = 8;
  const CellResult loose =
      RunCell(kThreads, kTxns, kBatch, /*batched=*/false);
  const CellResult batched =
      RunCell(kThreads, kTxns, kBatch, /*batched=*/true);
  const uint64_t total = static_cast<uint64_t>(kThreads) * kTxns;
  if (batched.records != total) {
    std::fprintf(stderr,
                 "FAIL: batched run journaled %llu records, want %llu "
                 "(one per transaction)\n",
                 static_cast<unsigned long long>(batched.records),
                 static_cast<unsigned long long>(total));
    return 1;
  }
  if (loose.records != total * kBatch) {
    std::fprintf(stderr,
                 "FAIL: loose run journaled %llu records, want %llu\n",
                 static_cast<unsigned long long>(loose.records),
                 static_cast<unsigned long long>(total * kBatch));
    return 1;
  }
  std::printf("record economy: batched %llu records, loose %llu — OK\n",
              static_cast<unsigned long long>(batched.records),
              static_cast<unsigned long long>(loose.records));

  // 2. Mini crash audit: crash mid-image under kGroup, restart, and check
  //    every multi-object record recovered all-or-nothing.
  const SystemFactory factory = [](TxnManager* manager) {
    AddCounterBank(manager, EngineConfig::kUipNrbc, 8, "C");
  };
  const TxnBody body = [](TxnManager* manager, Transaction* txn,
                          Random* rng) -> Status {
    std::vector<BatchOp> ops;
    const size_t start = rng->Uniform(8);
    for (size_t i = 0; i < 4; ++i) {
      auto ctr = MakeCounter("C" + std::to_string((start + i) % 8));
      ops.push_back(BatchOp{ctr->object_name(), "", ctr->IncInv(1)});
    }
    return manager->ExecuteBatch(txn, ops).status();
  };
  for (const double fraction : {0.3, 0.7, 1.0}) {
    CrashScenarioOptions options;
    options.driver.threads = 2;
    options.driver.txns_per_thread = 20;
    options.crash_fraction = fraction;
    options.group_commit = GroupCommitOptions{DurabilityMode::kGroup};
    const CrashScenarioResult result = RunCrashScenario(factory, body, options);
    if (!result.ok() || result.batch_records_total == 0) {
      std::fprintf(stderr,
                   "FAIL: crash audit at fraction %.1f: ok=%d partial=%zu "
                   "total=%zu (%s)\n",
                   fraction, result.ok() ? 1 : 0,
                   result.batch_records_partial, result.batch_records_total,
                   result.status.ToString().c_str());
      return 1;
    }
    std::printf(
        "crash audit f=%.1f: %zu batch records, %zu whole, 0 partial — OK\n",
        fraction, result.batch_records_total, result.batch_records_recovered);
  }
  std::printf("batch smoke OK\n");
  return 0;
}

}  // namespace
}  // namespace ccr

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      std::printf("PERF-BATCH smoke: record economy + crash audit\n\n");
      return ccr::RunSmoke();
    }
    // One cell, many transactions: `--cell THREADS BATCH loose|batched`.
    // For profiling a single configuration in isolation.
    if (std::strcmp(argv[i], "--cell") == 0 && i + 3 < argc) {
      const int threads = std::atoi(argv[i + 1]);
      const int batch = std::atoi(argv[i + 2]);
      const bool batched = std::strcmp(argv[i + 3], "batched") == 0;
      const ccr::CellResult r =
          ccr::RunCell(threads, 2000 / threads, batch, batched);
      std::printf(
          "%s threads=%d batch=%d: %.0f txn/s (%llu records, %llu syncs)\n",
          batched ? "batched" : "loose", threads, batch, r.txn_per_sec,
          static_cast<unsigned long long>(r.records),
          static_cast<unsigned long long>(r.syncs));
      return 0;
    }
  }
  ccr::BenchSweep();
  return 0;
}
