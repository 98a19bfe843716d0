// Copyright 2026 The ccr Authors.
//
// Group-commit pipeline tests: the durable watermark vs the ack point in
// every DurabilityMode, early lock release (a conflicting transaction
// proceeds while the committed batch's fdatasync is still in flight),
// batching observability, crash sweeps across mode x recovery method with
// the ack-durability audit, and corruption handling of batched images.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "adt/bank_account.h"
#include "adt/int_set.h"
#include "common/random.h"
#include "sim/crash_harness.h"
#include "txn/du_recovery.h"
#include "txn/group_commit.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

int64_t BalanceOf(const SpecState& state) {
  return TypedSpecAutomaton<Int64State>::Unwrap(state).v;
}

enum class Method { kUip, kDu };

std::unique_ptr<RecoveryManager> MakeRecovery(Method method,
                                              std::shared_ptr<const Adt> adt) {
  if (method == Method::kUip) return std::make_unique<UipRecovery>(adt);
  return std::make_unique<DuRecovery>(adt);
}

std::shared_ptr<const ConflictRelation> MakeConflict(Method method,
                                                     std::shared_ptr<Adt> adt) {
  if (method == Method::kUip) return MakeNrbcConflict(adt);
  return MakeNfcConflict(adt);
}

// A sink whose Sync blocks until the gate opens — freezes the flusher (or,
// in kSync mode, the committer) at the durability point so tests can
// observe what the rest of the engine can do mid-sync.
class GatedSink : public ByteSink {
 public:
  Status Append(std::string_view bytes) override {
    image_.append(bytes.data(), bytes.size());
    return Status::OK();
  }

  Status Sync() override {
    std::unique_lock<std::mutex> lk(mu_);
    ++syncs_started_;
    started_cv_.notify_all();
    gate_cv_.wait(lk, [&] { return open_; });
    return Status::OK();
  }

  void Open() {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    gate_cv_.notify_all();
  }

  void WaitForSyncStart() {
    std::unique_lock<std::mutex> lk(mu_);
    started_cv_.wait(lk, [&] { return syncs_started_ > 0; });
  }

  const std::string& image() const { return image_; }

 private:
  std::mutex mu_;
  std::condition_variable gate_cv_;
  std::condition_variable started_cv_;
  bool open_ = false;
  int syncs_started_ = 0;
  std::string image_;
};

// One bank account journaled through a pipeline in `mode`. The pieces are
// wired exactly as a deployment would: journal -> pipeline -> writer ->
// sink, with the manager acking against the pipeline's watermark.
struct PipelinedSystem {
  explicit PipelinedSystem(GroupCommitOptions gc, ByteSink* sink,
                           Method method = Method::kUip)
      : writer(sink), pipeline(&writer, gc) {
    ba = MakeBankAccount();
    journal.set_pipeline(&pipeline);
    manager.AddObject("BA", ba, MakeConflict(method, ba),
                      MakeRecovery(method, ba));
    manager.object("BA")->recovery().set_journal(&journal);
    manager.set_commit_pipeline(&pipeline);
  }

  std::shared_ptr<BankAccount> ba;
  JournalWriter writer;
  GroupCommitPipeline pipeline;
  Journal journal;
  TxnManager manager;
};

Status Deposit(PipelinedSystem* sys, Transaction* txn, int64_t amount) {
  return sys->manager.Execute(txn, sys->ba->DepositInv(amount)).status();
}

// In kGroup mode, Commit must not return before the transaction's highest
// LSN is durable: after every Commit, the watermark covers the whole
// journal (single-threaded, so this transaction's record is the tail).
TEST(GroupCommitTest, CommitAcksOnlyDurableRecords) {
  MemorySink sink;
  PipelinedSystem sys(GroupCommitOptions{DurabilityMode::kGroup}, &sink);
  for (int i = 0; i < 20; ++i) {
    auto txn = sys.manager.Begin();
    ASSERT_TRUE(Deposit(&sys, txn.get(), 5).ok());
    ASSERT_TRUE(sys.manager.Commit(txn.get()).ok());
    EXPECT_GE(sys.pipeline.durable_lsn(), sys.journal.high_lsn())
        << "commit " << i << " acknowledged before its record was durable";
  }
  const GroupCommitStats stats = sys.pipeline.stats();
  EXPECT_EQ(stats.records_sequenced, 20u);
  EXPECT_EQ(stats.records_flushed, 20u);
  EXPECT_EQ(stats.ack_latency_us.count(), 20u);
}

// kSync is the per-record baseline: every record is its own batch and its
// own sync, durable before Sequence even returns.
TEST(GroupCommitTest, SyncModeSyncsPerRecord) {
  MemorySink sink;
  PipelinedSystem sys(GroupCommitOptions{DurabilityMode::kSync}, &sink);
  for (int i = 0; i < 8; ++i) {
    auto txn = sys.manager.Begin();
    ASSERT_TRUE(Deposit(&sys, txn.get(), 1).ok());
    ASSERT_TRUE(sys.manager.Commit(txn.get()).ok());
  }
  const GroupCommitStats stats = sys.pipeline.stats();
  EXPECT_EQ(stats.records_flushed, 8u);
  EXPECT_EQ(stats.batches, 8u);
  EXPECT_EQ(stats.syncs, 8u);
  EXPECT_EQ(stats.max_batch_observed, 1u);
  EXPECT_EQ(sys.pipeline.durable_lsn(), 8u);
  EXPECT_EQ(sys.writer.sync_offsets().size(), 8u);
}

// kRelaxed acknowledges before durability: Commit returns with the
// watermark possibly behind the journal; Drain closes the gap.
TEST(GroupCommitTest, RelaxedModeAcksBeforeDurability) {
  GatedSink sink;
  PipelinedSystem sys(GroupCommitOptions{DurabilityMode::kRelaxed}, &sink);
  auto txn = sys.manager.Begin();
  ASSERT_TRUE(Deposit(&sys, txn.get(), 7).ok());
  // The gate is closed: nothing can become durable, yet the commit acks.
  ASSERT_TRUE(sys.manager.Commit(txn.get()).ok());
  EXPECT_LT(sys.pipeline.durable_lsn(), sys.journal.high_lsn());
  sink.Open();
  sys.pipeline.Drain();
  EXPECT_EQ(sys.pipeline.durable_lsn(), sys.journal.high_lsn());
}

// Early lock release, the tentpole property: while a committed batch's
// fdatasync is still in flight (gate closed), a conflicting transaction
// can execute at the object — under the per-record baseline it would be
// stuck behind the sync inside the object critical section.
TEST(GroupCommitTest, ConflictingExecuteProceedsDuringGroupSync) {
  GatedSink sink;
  PipelinedSystem sys(GroupCommitOptions{DurabilityMode::kGroup}, &sink);
  // Read/write conflicts make any two deposits conflict, so T2 below
  // genuinely needs T1's operation locks released.
  auto rw = MakeBankAccount("RW");
  sys.manager.AddObject("RW", rw, MakeReadWriteConflict(rw),
                        std::make_unique<UipRecovery>(rw));
  sys.manager.object("RW")->recovery().set_journal(&sys.journal);

  auto t1 = sys.manager.Begin();
  ASSERT_TRUE(
      sys.manager.Execute(t1.get(), rw->DepositInv(10)).status().ok());
  std::atomic<bool> t1_acked{false};
  std::thread committer([&] {
    EXPECT_TRUE(sys.manager.Commit(t1.get()).ok());
    t1_acked.store(true);
  });
  // Once the flusher is inside the gated Sync, T1's record is sequenced and
  // every lock T1 held is released — but T1 is not yet acknowledged.
  sink.WaitForSyncStart();
  EXPECT_FALSE(t1_acked.load());

  // The conflicting transaction runs to the commit point during the sync.
  auto t2 = sys.manager.Begin();
  EXPECT_TRUE(
      sys.manager.Execute(t2.get(), rw->DepositInv(20)).status().ok());

  sink.Open();
  committer.join();
  EXPECT_TRUE(t1_acked.load());
  ASSERT_TRUE(sys.manager.Commit(t2.get()).ok());
  sys.pipeline.Drain();

  // Both commits recover, in order.
  TxnManager restarted;
  auto rba = MakeBankAccount();
  restarted.AddObject("BA", rba, MakeNrbcConflict(rba),
                      std::make_unique<UipRecovery>(rba));
  auto rrw = MakeBankAccount("RW");
  restarted.AddObject("RW", rrw, MakeReadWriteConflict(rrw),
                      std::make_unique<UipRecovery>(rrw));
  RecoveryReport report;
  ASSERT_TRUE(restarted.RestartFromImage(sink.image(), &report).ok());
  EXPECT_EQ(report.records_replayed, 2u);
  EXPECT_EQ(BalanceOf(*restarted.object("RW")->CommittedState()), 30);
}

// A sink whose Sync costs real time (a simulated fdatasync), giving the
// flusher a natural batching window: records sequenced during batch N's
// sync form batch N+1.
class SlowSink : public ByteSink {
 public:
  Status Append(std::string_view bytes) override {
    image_.append(bytes.data(), bytes.size());
    return Status::OK();
  }
  Status Sync() override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return Status::OK();
  }
  const std::string& image() const { return image_; }

 private:
  std::string image_;
};

// Multithreaded batching: concurrent committers share syncs. With the
// linger cut by blocked committers this cannot batch perfectly, but it
// must (a) flush everything, (b) use strictly fewer syncs than records,
// and (c) keep the recovered state equal to the committed one.
TEST(GroupCommitTest, ConcurrentCommittersShareSyncs) {
  SlowSink sink;
  GroupCommitOptions gc{DurabilityMode::kGroup};
  PipelinedSystem sys(gc, &sink);
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 25;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        EXPECT_TRUE(sys.manager
                        .RunTransaction([&](Transaction* txn) {
                          return Deposit(&sys, txn, 1);
                        })
                        .ok());
      }
    });
  }
  for (std::thread& t : workers) t.join();
  sys.pipeline.Drain();

  const GroupCommitStats stats = sys.pipeline.stats();
  constexpr uint64_t kTotal = kThreads * kTxnsPerThread;
  EXPECT_EQ(stats.records_sequenced, kTotal);
  EXPECT_EQ(stats.records_flushed, kTotal);
  EXPECT_LT(stats.syncs, kTotal);
  EXPECT_GT(stats.max_batch_observed, 1u);
  EXPECT_EQ(sys.pipeline.durable_lsn(), kTotal);

  TxnManager restarted;
  auto rba = MakeBankAccount();
  restarted.AddObject("BA", rba, MakeNrbcConflict(rba),
                      std::make_unique<UipRecovery>(rba));
  RecoveryReport report;
  ASSERT_TRUE(restarted.RestartFromImage(sink.image(), &report).ok());
  EXPECT_EQ(report.records_replayed, kTotal);
  EXPECT_EQ(BalanceOf(*restarted.object("BA")->CommittedState()),
            static_cast<int64_t>(kTotal));
}

// A batched image obeys the same corruption contract as a per-record one:
// torn tails truncate to the last whole record, damage to the durable
// prefix is rejected loudly.
TEST(GroupCommitTest, BatchedImageCorruptionContract) {
  MemorySink sink;
  PipelinedSystem sys(GroupCommitOptions{DurabilityMode::kGroup}, &sink);
  for (int i = 0; i < 6; ++i) {
    auto txn = sys.manager.Begin();
    ASSERT_TRUE(Deposit(&sys, txn.get(), 2).ok());
    ASSERT_TRUE(sys.manager.Commit(txn.get()).ok());
  }
  sys.pipeline.Drain();
  const std::string image = sink.image();

  // Torn tail: cut mid-final-record; the scan truncates to 5 records.
  {
    const std::string torn = image.substr(0, image.size() - 3);
    RecoveryReport report;
    auto scanned = ScanJournalImage(torn, &report);
    ASSERT_TRUE(scanned.ok());
    EXPECT_EQ(report.records_replayed, 5u);
    EXPECT_TRUE(report.corrupt_tail);
  }
  // Mid-journal flip: a synced prefix was damaged — recovery must refuse
  // rather than silently drop acknowledged commits.
  {
    std::string flipped = image;
    FlipByte(&flipped, image.size() / 3, 0x20);
    TxnManager restarted;
    auto rba = MakeBankAccount();
    restarted.AddObject("BA", rba, MakeNrbcConflict(rba),
                        std::make_unique<UipRecovery>(rba));
    RecoveryReport report;
    EXPECT_EQ(restarted.RestartFromImage(flipped, &report).code(),
              StatusCode::kInternal);
  }
}

// The full matrix: mode x method x crash fraction through the crash
// harness, whose ok() includes the ack-durability audit — no acknowledged
// commit may be lost, in any mode, at any crash point.
class GroupCommitCrashTest
    : public ::testing::TestWithParam<std::tuple<Method, DurabilityMode>> {};

TEST_P(GroupCommitCrashTest, CrashSweepLosesNoAckedCommit) {
  const auto [method, mode] = GetParam();
  const SystemFactory factory = [method](TxnManager* manager) {
    auto ba = MakeBankAccount();
    auto set = MakeIntSet();
    manager->AddObject("BA", ba, MakeConflict(method, ba),
                       MakeRecovery(method, ba));
    manager->AddObject("SET", set, MakeConflict(method, set),
                       MakeRecovery(method, set));
  };
  const auto ba = MakeBankAccount();
  const auto set = MakeIntSet();
  const TxnBody body = [ba, set](TxnManager* manager, Transaction* txn,
                                 Random* rng) -> Status {
    const int ops = 1 + static_cast<int>(rng->UniformRange(1, 3));
    for (int i = 0; i < ops; ++i) {
      const StatusOr<Value> r =
          rng->Bernoulli(0.5)
              ? manager->Execute(txn, ba->DepositInv(rng->UniformRange(1, 9)))
              : manager->Execute(txn, set->InsertInv(rng->UniformRange(1, 8)));
      if (!r.ok()) return r.status();
    }
    return Status::OK();
  };

  for (const uint64_t seed : {13u, 29u}) {
    for (const double fraction : {0.0, 0.33, 0.71, 1.0}) {
      CrashScenarioOptions options;
      options.driver.threads = 3;
      options.driver.txns_per_thread = 20;
      options.driver.seed = seed;
      options.crash_fraction = fraction;
      options.group_commit.mode = mode;
      const CrashScenarioResult result =
          RunCrashScenario(factory, body, options);
      EXPECT_TRUE(result.ok())
          << "seed " << seed << " fraction " << fraction << ": status "
          << result.status.ToString() << ", prefix " << result.prefix_of_commit_order
          << ", state " << result.state_matches_prefix << ", acked_recovered "
          << result.acked_recovered << " (acked " << result.acked_records
          << ", replayed " << result.report.records_replayed << ")";
      EXPECT_LE(result.acked_records, result.records_total);
      if (fraction == 1.0) {
        // A clean shutdown (post-Drain) acknowledged everything.
        EXPECT_EQ(result.acked_records, result.records_total);
        EXPECT_EQ(result.report.records_replayed, result.records_total);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndMethods, GroupCommitCrashTest,
    ::testing::Combine(::testing::Values(Method::kUip, Method::kDu),
                       ::testing::Values(DurabilityMode::kSync,
                                         DurabilityMode::kGroup,
                                         DurabilityMode::kRelaxed)),
    [](const ::testing::TestParamInfo<std::tuple<Method, DurabilityMode>>&
           info) {
      const Method method = std::get<0>(info.param);
      const DurabilityMode mode = std::get<1>(info.param);
      std::string name = method == Method::kUip ? "Uip" : "Du";
      switch (mode) {
        case DurabilityMode::kSync:
          return name + "Sync";
        case DurabilityMode::kGroup:
          return name + "Group";
        case DurabilityMode::kRelaxed:
          return name + "Relaxed";
      }
      return name;
    });

// ---------------------------------------------------------------------------
// OnDurable: the async acknowledgment hook behind the serving front end.
// ---------------------------------------------------------------------------

// In kGroup mode a callback registered past the watermark must not fire
// until the flusher's sync completes, and callbacks fire in LSN order.
TEST(OnDurableTest, FiresAfterSyncInLsnOrder) {
  GatedSink sink;
  PipelinedSystem sys(GroupCommitOptions{DurabilityMode::kGroup}, &sink);

  auto t1 = sys.manager.Begin();
  ASSERT_TRUE(Deposit(&sys, t1.get(), 1).ok());
  auto t2 = sys.manager.Begin();
  ASSERT_TRUE(Deposit(&sys, t2.get(), 2).ok());
  const StatusOr<Lsn> l1 = sys.manager.CommitAsync(t1.get());
  const StatusOr<Lsn> l2 = sys.manager.CommitAsync(t2.get());
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(l2.ok());
  ASSERT_LT(*l1, *l2);

  std::mutex mu;
  std::vector<Lsn> fired;
  // Register out of LSN order; both are past the (gated) watermark.
  sys.pipeline.OnDurable(*l2, [&] {
    std::lock_guard<std::mutex> lk(mu);
    fired.push_back(*l2);
  });
  sys.pipeline.OnDurable(*l1, [&] {
    std::lock_guard<std::mutex> lk(mu);
    fired.push_back(*l1);
  });
  sink.WaitForSyncStart();
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_TRUE(fired.empty());  // sync still in flight: no ack yet
  }
  sink.Open();
  sys.pipeline.Drain();
  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], *l1);  // LSN order, not registration order
    EXPECT_EQ(fired[1], *l2);
  }
  EXPECT_EQ(sys.pipeline.stats().async_acks, 2u);
}

// A callback for an already-durable LSN (or kNoLsn) runs inline.
TEST(OnDurableTest, AlreadyDurableRunsInline) {
  MemorySink sink;
  PipelinedSystem sys(GroupCommitOptions{DurabilityMode::kGroup}, &sink);
  auto t1 = sys.manager.Begin();
  ASSERT_TRUE(Deposit(&sys, t1.get(), 5).ok());
  ASSERT_TRUE(sys.manager.Commit(t1.get()).ok());  // waits durable

  bool fired = false;
  sys.pipeline.OnDurable(sys.pipeline.durable_lsn(), [&] { fired = true; });
  EXPECT_TRUE(fired);
  fired = false;
  sys.pipeline.OnDurable(kNoLsn, [&] { fired = true; });
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace ccr
