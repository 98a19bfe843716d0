// Copyright 2026 The ccr Authors.
//
// The striped object directory and the dynamic object lifecycle: raw
// directory semantics (striping, single construction under races, drop
// retirement into the graveyard), manager-level lifecycle (GetOrCreate
// through registered factories, journaled create/drop records, the
// drop-with-live-transaction refusal), lazy creation racing a fuzzy
// checkpoint, restarts that re-create dynamically created objects (plain
// Restart, RestartFromImage, and checkpoint-aware RestartFromDir — with
// drop and re-create incarnations), fail-atomicity when the journal names
// an unregistered factory, and crash sweeps (byte-offset crash fractions
// plus named maintenance crash points) over lifecycle-performing
// workloads.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "adt/counter.h"
#include "common/random.h"
#include "core/commutativity.h"
#include "core/operation.h"
#include "sim/crash_harness.h"
#include "sim/memory_journal.h"
#include "store/log_store.h"
#include "txn/checkpoint.h"
#include "txn/group_commit.h"
#include "txn/journal.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"
#include "txn/object_directory.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

constexpr const char* kCounterFactory = "counter";

void RegisterCounterFactory(TxnManager* manager) {
  manager->RegisterFactory(kCounterFactory, [](const ObjectId& id) {
    std::shared_ptr<Counter> ctr = MakeCounter(id);
    ObjectConfig config;
    config.adt = ctr;
    config.conflict = MakeNrbcConflict(ctr);
    config.recovery = std::make_unique<UipRecovery>(ctr);
    return config;
  });
}

std::unique_ptr<AtomicObject> MakeCounterObject(const ObjectId& id) {
  std::shared_ptr<Counter> ctr = MakeCounter(id);
  return std::make_unique<AtomicObject>(id, ctr, MakeNrbcConflict(ctr),
                                        std::make_unique<UipRecovery>(ctr));
}

Invocation IncInv(const ObjectId& id, int64_t amount) {
  return Invocation(id, Counter::kInc, "inc", {Value(amount)});
}

Invocation ReadInv(const ObjectId& id) {
  return Invocation(id, Counter::kRead, "read", {});
}

// Commits one increment of `amount` on `id`; returns Execute's status.
Status CommitInc(TxnManager* manager, const ObjectId& id, int64_t amount) {
  const std::shared_ptr<Transaction> txn = manager->Begin();
  const StatusOr<Value> r = manager->Execute(txn.get(), IncInv(id, amount));
  if (!r.ok()) {
    EXPECT_TRUE(manager->Abort(txn.get()).ok());
    return r.status();
  }
  EXPECT_TRUE(manager->Commit(txn.get()).ok());
  return Status::OK();
}

// Reads `id`'s committed value through a read transaction.
int64_t ReadCounter(TxnManager* manager, const ObjectId& id) {
  const std::shared_ptr<Transaction> txn = manager->Begin();
  const StatusOr<Value> r = manager->Execute(txn.get(), ReadInv(id));
  CCR_CHECK_MSG(r.ok(), "read %s: %s", id.c_str(),
                r.status().ToString().c_str());
  CCR_CHECK(manager->Commit(txn.get()).ok());
  return r->AsInt();
}

class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/ccr_dir_test_XXXXXX";
    if (::mkdtemp(buf) != nullptr) path_ = buf;
    CCR_CHECK(!path_.empty());
  }
  ~TempDir() {
    if (StatusOr<std::vector<std::string>> names = ListDir(path_);
        names.ok()) {
      for (const std::string& name : *names) {
        std::remove((path_ + "/" + name).c_str());
      }
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Checkpoints live in the object store: a LogStructuredStore sharing the
// journal's directory.
std::unique_ptr<LogStructuredStore> OpenStore(const std::string& dir) {
  StatusOr<std::unique_ptr<LogStructuredStore>> store =
      LogStructuredStore::Open(dir);
  CCR_CHECK(store.ok());
  return std::move(*store);
}

Checkpointer StoreCheckpointer(const std::string& dir, ObjectStore* store) {
  CheckpointerOptions options;
  options.store = store;
  return Checkpointer(dir, options);
}

// ---------------------------------------------------------------------------
// Raw directory semantics
// ---------------------------------------------------------------------------

TEST(StripedDirectoryTest, InsertFindSnapshotStats) {
  ObjectDirectory dir(8);
  EXPECT_EQ(dir.stripe_count(), 8u);
  for (int i = 0; i < 100; ++i) {
    const std::string id = "O" + std::to_string(i);
    dir.Insert(id, MakeCounterObject(id));
  }
  EXPECT_EQ(dir.size(), 100u);
  EXPECT_NE(dir.Find("O42"), nullptr);
  EXPECT_EQ(dir.Find("missing"), nullptr);

  // Snapshot is sorted by id and covers every live object.
  const std::vector<AtomicObject*> snap = dir.Snapshot();
  ASSERT_EQ(snap.size(), 100u);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1]->id(), snap[i]->id());
  }

  const DirectoryStats stats = dir.stats();
  EXPECT_EQ(stats.stripes, 8u);
  EXPECT_EQ(stats.live_objects, 100u);
  EXPECT_EQ(stats.retired_objects, 0u);
  EXPECT_EQ(stats.creates, 100u);
  EXPECT_EQ(stats.drops, 0u);
  EXPECT_GE(stats.max_stripe_depth, 100u / 8u);
}

TEST(StripedDirectoryTest, DefaultStripeCountIsPowerOfTwo) {
  ObjectDirectory dir;
  const size_t n = dir.stripe_count();
  EXPECT_GE(n, 16u);
  EXPECT_EQ(n & (n - 1), 0u) << n << " is not a power of two";
}

TEST(StripedDirectoryTest, GetOrCreateConstructsExactlyOnceUnderRace) {
  constexpr int kThreads = 8;
  constexpr int kIds = 32;
  constexpr int kRounds = 200;
  ObjectDirectory dir(16);
  std::atomic<int> constructed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Random rng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < kRounds; ++i) {
        const std::string id = "O" + std::to_string(rng.Uniform(kIds));
        bool created = false;
        const StatusOr<AtomicObject*> obj = dir.GetOrCreate(
            id,
            [&]() -> StatusOr<std::unique_ptr<AtomicObject>> {
              constructed.fetch_add(1);
              return StatusOr<std::unique_ptr<AtomicObject>>(
                  MakeCounterObject(id));
            },
            &created);
        ASSERT_TRUE(obj.ok());
        ASSERT_NE(*obj, nullptr);
        EXPECT_EQ((*obj)->id(), id);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Exactly one construction per id, no matter how the races interleaved.
  EXPECT_EQ(constructed.load(), kIds);
  EXPECT_EQ(dir.size(), static_cast<size_t>(kIds));
}

TEST(StripedDirectoryTest, DropRetiresIntoGraveyard) {
  ObjectDirectory dir(4);
  AtomicObject* obj = dir.Insert("X", MakeCounterObject("X"));
  ASSERT_EQ(dir.Find("X"), obj);

  ASSERT_TRUE(dir.Drop("X", [](AtomicObject*) { return Status::OK(); }).ok());
  EXPECT_EQ(dir.Find("X"), nullptr);
  // The memory stays valid for raced lookups that got the pointer first.
  EXPECT_EQ(obj->id(), "X");
  const std::vector<AtomicObject*> all = dir.Snapshot(/*include_retired=*/true);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], obj);

  const DirectoryStats stats = dir.stats();
  EXPECT_EQ(stats.live_objects, 0u);
  EXPECT_EQ(stats.retired_objects, 1u);
  EXPECT_EQ(stats.drops, 1u);

  EXPECT_EQ(dir.Drop("X", [](AtomicObject*) { return Status::OK(); }).code(),
            StatusCode::kNotFound);
}

TEST(StripedDirectoryTest, DropRefusalLeavesObjectLive) {
  ObjectDirectory dir(4);
  dir.Insert("X", MakeCounterObject("X"));
  const Status refused = dir.Drop(
      "X", [](AtomicObject*) { return Status::IllegalState("held"); });
  EXPECT_EQ(refused.code(), StatusCode::kIllegalState);
  EXPECT_NE(dir.Find("X"), nullptr);
  EXPECT_EQ(dir.stats().drops, 0u);
}

// ---------------------------------------------------------------------------
// Manager-level lifecycle
// ---------------------------------------------------------------------------

TEST(LifecycleTest, GetOrCreateUnknownFactoryIsNotFound) {
  TxnManager manager;
  EXPECT_EQ(manager.GetOrCreate("X", "nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(manager.object("X"), nullptr);
}

TEST(LifecycleTest, DropUnknownObjectIsNotFound) {
  TxnManager manager;
  EXPECT_EQ(manager.DropObject("X").code(), StatusCode::kNotFound);
}

TEST(LifecycleTest, CreateAndDropJournalLifecycleRecords) {
  MemoryJournal journal;
  TxnManager manager;
  RegisterCounterFactory(&manager);
  manager.set_lifecycle_journal(&journal.journal);

  const StatusOr<AtomicObject*> created =
      manager.GetOrCreate("D", kCounterFactory);
  ASSERT_TRUE(created.ok());
  // Second call finds, does not re-create (and journals nothing).
  const StatusOr<AtomicObject*> found =
      manager.GetOrCreate("D", kCounterFactory);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*created, *found);
  EXPECT_EQ((*created)->factory_name(), kCounterFactory);

  ASSERT_TRUE(CommitInc(&manager, "D", 5).ok());
  EXPECT_EQ(ReadCounter(&manager, "D"), 5);
  ASSERT_TRUE(manager.DropObject("D").ok());

  // Dropped: lookups and Execute refuse.
  EXPECT_EQ(manager.object("D"), nullptr);
  EXPECT_EQ(CommitInc(&manager, "D", 1).code(), StatusCode::kNotFound);

  // Re-creating the id starts a fresh incarnation at the initial state.
  ASSERT_TRUE(manager.GetOrCreate("D", kCounterFactory).ok());
  EXPECT_EQ(ReadCounter(&manager, "D"), 0);

  const std::vector<Journal::Entry> entries = journal.Decode().entries;
  // create, inc, read, drop, create, read (each committed read journals
  // its op too under UIP).
  ASSERT_EQ(entries.size(), 6u);
  EXPECT_TRUE(entries[0].is_lifecycle);
  EXPECT_EQ(entries[0].lifecycle.kind, LifecycleRecord::Kind::kCreate);
  EXPECT_EQ(entries[0].lifecycle.object, "D");
  EXPECT_EQ(entries[0].lifecycle.factory, kCounterFactory);
  EXPECT_FALSE(entries[1].is_lifecycle);
  EXPECT_TRUE(entries[3].is_lifecycle);
  EXPECT_EQ(entries[3].lifecycle.kind, LifecycleRecord::Kind::kDrop);
  EXPECT_EQ(entries[3].lifecycle.object, "D");
  EXPECT_TRUE(entries[4].is_lifecycle);
  EXPECT_EQ(entries[4].lifecycle.kind, LifecycleRecord::Kind::kCreate);

  const DirectoryStats stats = manager.directory_stats();
  EXPECT_EQ(stats.creates, 2u);
  EXPECT_EQ(stats.drops, 1u);
  EXPECT_EQ(stats.live_objects, 1u);
  EXPECT_EQ(stats.retired_objects, 1u);
}

TEST(LifecycleTest, DropRefusedWhileTransactionHoldsOps) {
  TxnManager manager;
  RegisterCounterFactory(&manager);
  ASSERT_TRUE(manager.GetOrCreate("D", kCounterFactory).ok());

  const std::shared_ptr<Transaction> txn = manager.Begin();
  ASSERT_TRUE(manager.Execute(txn.get(), IncInv("D", 1)).ok());
  // The transaction holds its inc at D: drop must refuse.
  EXPECT_EQ(manager.DropObject("D").code(), StatusCode::kIllegalState);
  EXPECT_NE(manager.object("D"), nullptr);

  ASSERT_TRUE(manager.Commit(txn.get()).ok());
  EXPECT_TRUE(manager.DropObject("D").ok());
  EXPECT_EQ(manager.object("D"), nullptr);
}

// ---------------------------------------------------------------------------
// Concurrent lifecycle races (primary TSan targets)
// ---------------------------------------------------------------------------

TEST(LifecycleRaceTest, ConcurrentCreateDropLookupExecute) {
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  constexpr int kIds = 128;
  TxnManagerOptions options;
  options.record_history = false;
  TxnManager manager(options);
  RegisterCounterFactory(&manager);

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Random rng(500 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        const std::string id = "R" + std::to_string(rng.Uniform(kIds));
        const uint64_t roll = rng.Uniform(100);
        if (roll < 40) {
          if (!manager.GetOrCreate(id, kCounterFactory).ok()) ++failures;
        } else if (roll < 55) {
          const Status s = manager.DropObject(id);
          if (!s.ok() && s.code() != StatusCode::kNotFound &&
              s.code() != StatusCode::kIllegalState) {
            ++failures;
          }
        } else if (roll < 70) {
          (void)manager.object(id);  // racy lookup; any answer is fine
        } else {
          const Status s = CommitInc(&manager, id, 1);
          if (!s.ok() && s.code() != StatusCode::kNotFound) ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);

  const DirectoryStats stats = manager.directory_stats();
  EXPECT_EQ(stats.creates - stats.drops, stats.live_objects);
  EXPECT_EQ(stats.retired_objects, static_cast<size_t>(stats.drops));
}

TEST(LifecycleRaceTest, LazyCreatesDuringRacingCheckpointRestartExactly) {
  constexpr int kIds = 60;
  TempDir dir;
  std::unique_ptr<LogStructuredStore> store = OpenStore(dir.path());
  StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
      SegmentedFileSink::Open(dir.path(), 1);
  ASSERT_TRUE(sink.ok());
  JournalWriter writer(sink->get());
  GroupCommitPipeline pipeline(&writer, {.mode = DurabilityMode::kSync});
  Journal journal;
  journal.set_pipeline(&pipeline);

  TxnManagerOptions options;
  options.record_history = false;
  TxnManager manager(options);
  RegisterCounterFactory(&manager);
  manager.set_object_store(store.get());
  manager.set_lifecycle_journal(&journal);

  // Workload thread lazily creates kIds objects and commits one increment
  // on each; the main thread writes fuzzy checkpoints the whole time, so
  // images land between (and inside) create/commit pairs.
  std::atomic<bool> done{false};
  std::thread workload([&]() {
    for (int i = 0; i < kIds; ++i) {
      const std::string id = "L" + std::to_string(i);
      CCR_CHECK(manager.GetOrCreate(id, kCounterFactory).ok());
      CCR_CHECK(CommitInc(&manager, id, i % 5 + 1).ok());
    }
    done.store(true, std::memory_order_release);
  });
  Checkpointer checkpointer = StoreCheckpointer(dir.path(), store.get());
  size_t checkpoints = 0;
  while (!done.load(std::memory_order_acquire)) {
    const Lsn anchor = journal.high_lsn();
    if (anchor > 0 && checkpointer.Write(&manager, anchor).ok()) {
      ++checkpoints;
    }
  }
  workload.join();
  ASSERT_GE(checkpoints, 1u);

  TxnManager restarted(options);
  RegisterCounterFactory(&restarted);
  restarted.set_object_store(store.get());
  const StatusOr<RestartSummary> summary =
      restarted.RestartFromDir(dir.path(), {/*replay_threads=*/2});
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  for (int i = 0; i < kIds; ++i) {
    const std::string id = "L" + std::to_string(i);
    ASSERT_NE(restarted.object(id), nullptr) << id;
    EXPECT_EQ(ReadCounter(&restarted, id), i % 5 + 1) << id;
  }
}

// ---------------------------------------------------------------------------
// Restart re-creates dynamic objects
// ---------------------------------------------------------------------------

// Builds the lifecycle story the image restart test replays:
//   create D1, inc D1 +5, create D2, inc D2 +7,
//   drop D2, create D2 (fresh incarnation), inc D2 +3,
//   create D3, inc D3 +9, drop D3 (stays dropped).
void RunLifecycleStory(TxnManager* manager) {
  ASSERT_TRUE(manager->GetOrCreate("D1", kCounterFactory).ok());
  ASSERT_TRUE(CommitInc(manager, "D1", 5).ok());
  ASSERT_TRUE(manager->GetOrCreate("D2", kCounterFactory).ok());
  ASSERT_TRUE(CommitInc(manager, "D2", 7).ok());
  ASSERT_TRUE(manager->DropObject("D2").ok());
  ASSERT_TRUE(manager->GetOrCreate("D2", kCounterFactory).ok());
  ASSERT_TRUE(CommitInc(manager, "D2", 3).ok());
  ASSERT_TRUE(manager->GetOrCreate("D3", kCounterFactory).ok());
  ASSERT_TRUE(CommitInc(manager, "D3", 9).ok());
  ASSERT_TRUE(manager->DropObject("D3").ok());
}

void ExpectStoryState(TxnManager* manager) {
  ASSERT_NE(manager->object("D1"), nullptr);
  EXPECT_EQ(ReadCounter(manager, "D1"), 5);
  // D2's second incarnation starts fresh: +7 died with the drop.
  ASSERT_NE(manager->object("D2"), nullptr);
  EXPECT_EQ(ReadCounter(manager, "D2"), 3);
  // D3's final journaled state is dropped.
  EXPECT_EQ(manager->object("D3"), nullptr);
  EXPECT_EQ(manager->objects().size(), 2u);
}

TEST(DynamicRestartTest, RestartFromImageRecreatesDynamicObjects) {
  MemorySink sink;
  JournalWriter writer(&sink);
  GroupCommitPipeline pipeline(&writer, {.mode = DurabilityMode::kSync});
  Journal journal;
  journal.set_pipeline(&pipeline);
  {
    TxnManager manager;
    RegisterCounterFactory(&manager);
    manager.set_lifecycle_journal(&journal);
    RunLifecycleStory(&manager);
  }

  TxnManager restarted;
  RegisterCounterFactory(&restarted);
  RecoveryReport report;
  ASSERT_TRUE(restarted.RestartFromImage(sink.image(), &report).ok());
  EXPECT_EQ(report.records_replayed, journal.high_lsn());
  ExpectStoryState(&restarted);
}

TEST(DynamicRestartTest, RestartFromDirReplaysLifecycleAcrossCheckpoint) {
  TempDir dir;
  Lsn anchor = 0;
  {
    std::unique_ptr<LogStructuredStore> store = OpenStore(dir.path());
    StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
        SegmentedFileSink::Open(dir.path(), 1);
    ASSERT_TRUE(sink.ok());
    JournalWriter writer(sink->get());
    GroupCommitPipeline pipeline(&writer, {.mode = DurabilityMode::kSync});
    Journal journal;
    journal.set_pipeline(&pipeline);

    TxnManager manager;
    RegisterCounterFactory(&manager);
    manager.set_object_store(store.get());
    manager.set_lifecycle_journal(&journal);

    // Pre-checkpoint: two dynamic objects with state.
    ASSERT_TRUE(manager.GetOrCreate("A", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "A", 5).ok());
    ASSERT_TRUE(manager.GetOrCreate("B", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "B", 2).ok());

    Checkpointer checkpointer = StoreCheckpointer(dir.path(), store.get());
    anchor = journal.high_lsn();
    const StatusOr<Lsn> written = checkpointer.Write(&manager, anchor);
    ASSERT_TRUE(written.ok());
    ASSERT_TRUE((*sink)->TruncateBelow(*written).ok());

    // Post-checkpoint tail: drop B (its image entry must not
    // resurrect it blindly), re-create it, create C, keep mutating A, and
    // leave D dropped.
    ASSERT_TRUE(manager.DropObject("B").ok());
    ASSERT_TRUE(manager.GetOrCreate("B", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "B", 9).ok());
    ASSERT_TRUE(manager.GetOrCreate("C", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "C", 4).ok());
    ASSERT_TRUE(CommitInc(&manager, "A", 1).ok());
    ASSERT_TRUE(manager.GetOrCreate("D", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "D", 8).ok());
    ASSERT_TRUE(manager.DropObject("D").ok());
  }

  std::unique_ptr<LogStructuredStore> store = OpenStore(dir.path());
  TxnManager restarted;
  RegisterCounterFactory(&restarted);
  restarted.set_object_store(store.get());
  const StatusOr<RestartSummary> summary =
      restarted.RestartFromDir(dir.path(), {/*replay_threads=*/2});
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->checkpoint_anchor, anchor);
  EXPECT_GE(summary->objects_created, 2u);  // at least C and B's re-create
  EXPECT_EQ(summary->objects_dropped, 1u);  // D

  ASSERT_NE(restarted.object("A"), nullptr);
  EXPECT_EQ(ReadCounter(&restarted, "A"), 6);
  ASSERT_NE(restarted.object("B"), nullptr);
  EXPECT_EQ(ReadCounter(&restarted, "B"), 9);
  ASSERT_NE(restarted.object("C"), nullptr);
  EXPECT_EQ(ReadCounter(&restarted, "C"), 4);
  EXPECT_EQ(restarted.object("D"), nullptr);
}

// Writes every frame to both sinks: one durable run yields the crash image
// RestartFromImage reads and the segmented directory RestartFromDir reads.
class TeeSink : public ByteSink {
 public:
  TeeSink(ByteSink* a, ByteSink* b) : a_(a), b_(b) {}
  Status Append(std::string_view bytes) override {
    CCR_RETURN_IF_ERROR(a_->Append(bytes));
    return b_->Append(bytes);
  }
  Status Sync() override {
    CCR_RETURN_IF_ERROR(a_->Sync());
    return b_->Sync();
  }

 private:
  ByteSink* const a_;
  ByteSink* const b_;
};

// Commits one multi-object batch: one commit record naming every op's
// object, creating absent ones through the counter factory.
Status CommitBatch(TxnManager* manager,
                   const std::vector<std::pair<ObjectId, int64_t>>& incs) {
  std::vector<BatchOp> ops;
  for (const auto& [id, amount] : incs) {
    ops.push_back(BatchOp{id, kCounterFactory, IncInv(id, amount)});
  }
  return manager->RunTransaction([&](Transaction* txn) {
    return manager->ExecuteBatch(txn, ops).status();
  });
}

// Differential restart: one durable lifecycle workload, restarted through
// RestartFromImage and through RestartFromDir on one and on three replay
// threads, with and without a checkpoint, must recover the same world —
// the original's live-object set, committed states, per-object LSNs, and
// transaction watermark.
TEST(DynamicRestartTest, ImageAndDirRestartsRecoverTheSameWorld) {
  for (const bool checkpoint : {false, true}) {
    SCOPED_TRACE(checkpoint ? "with checkpoint" : "without checkpoint");
    TempDir dir;
    std::unique_ptr<LogStructuredStore> store = OpenStore(dir.path());
    SegmentedSinkOptions sink_options;
    sink_options.max_segment_bytes = 160;
    StatusOr<std::unique_ptr<SegmentedFileSink>> segments =
        SegmentedFileSink::Open(dir.path(), 1, sink_options);
    ASSERT_TRUE(segments.ok());
    MemorySink memory;
    TeeSink tee(&memory, segments->get());
    JournalWriter writer(&tee);
    GroupCommitPipeline pipeline(&writer, {.mode = DurabilityMode::kSync});
    Journal journal;
    journal.set_pipeline(&pipeline);

    TxnManager manager;
    RegisterCounterFactory(&manager);
    manager.set_object_store(store.get());
    manager.set_lifecycle_journal(&journal);
    ASSERT_TRUE(manager.GetOrCreate("A", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "A", 5).ok());
    ASSERT_TRUE(CommitBatch(&manager, {{"A", 1}, {"B", 3}}).ok());
    ASSERT_TRUE(manager.GetOrCreate("C", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "C", 4).ok());
    ASSERT_TRUE(manager.DropObject("C").ok());
    ASSERT_TRUE(CommitBatch(&manager, {{"D", 1}, {"B", 2}}).ok());
    ASSERT_TRUE(manager.GetOrCreate("G", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "G", 8).ok());
    // A fuzzy checkpoint: the anchor is captured before these records, the
    // object walk after them — so A's and F's images overshoot the anchor
    // (and cover F's create), and G, dropped before the walk, leaves
    // orphaned ops in the tail that its drop record resolves.
    const Lsn fuzzy_anchor = journal.high_lsn();
    ASSERT_TRUE(CommitBatch(&manager, {{"A", 3}, {"F", 2}}).ok());
    ASSERT_TRUE(CommitInc(&manager, "G", 5).ok());
    ASSERT_TRUE(manager.DropObject("G").ok());
    Lsn anchor = 0;
    if (checkpoint) {
      anchor = fuzzy_anchor;
      ASSERT_TRUE(StoreCheckpointer(dir.path(), store.get())
                      .Write(&manager, anchor)
                      .ok());
      ASSERT_TRUE((*segments)->TruncateBelow(anchor).ok());
    }
    // The tail: re-create a dropped id on each side of the checkpoint,
    // batch across a re-created object, and leave one object dropped.
    ASSERT_TRUE(manager.DropObject("B").ok());
    ASSERT_TRUE(CommitBatch(&manager, {{"B", 9}, {"A", 2}, {"D", 7}}).ok());
    ASSERT_TRUE(CommitBatch(&manager, {{"C", 6}, {"E", 1}}).ok());
    ASSERT_TRUE(manager.DropObject("D").ok());
    ASSERT_TRUE(CommitBatch(&manager, {{"E", 2}, {"A", 1}}).ok());
    ASSERT_TRUE(CommitInc(&manager, "C", 1).ok());

    const auto expect_same_world = [&](TxnManager* restarted,
                                       const std::string& path) {
      std::vector<ObjectId> want;
      std::vector<ObjectId> got;
      for (AtomicObject* obj : manager.objects()) want.push_back(obj->id());
      for (AtomicObject* obj : restarted->objects()) got.push_back(obj->id());
      ASSERT_EQ(got, want) << path;
      for (AtomicObject* obj : manager.objects()) {
        AtomicObject* other = restarted->object(obj->id());
        EXPECT_TRUE(other->CommittedState()->Equals(*obj->CommittedState()))
            << path << ": " << obj->id();
        EXPECT_EQ(other->last_committed_lsn(), obj->last_committed_lsn())
            << path << ": " << obj->id();
      }
      EXPECT_EQ(restarted->max_assigned_txn(), manager.max_assigned_txn())
          << path;
    };
    {
      TxnManager restarted;
      RegisterCounterFactory(&restarted);
      RecoveryReport report;
      ASSERT_TRUE(restarted.RestartFromImage(memory.image(), &report).ok());
      EXPECT_EQ(report.records_replayed, journal.high_lsn());
      expect_same_world(&restarted, "image");
    }
    for (const int threads : {1, 3}) {
      TxnManager restarted;
      RegisterCounterFactory(&restarted);
      restarted.set_object_store(store.get());
      const StatusOr<RestartSummary> summary =
          restarted.RestartFromDir(dir.path(), RestartOptions{threads});
      ASSERT_TRUE(summary.ok()) << summary.status().ToString();
      EXPECT_EQ(summary->checkpoint_anchor, anchor);
      EXPECT_EQ(summary->high_lsn, journal.high_lsn());
      expect_same_world(&restarted, "dir, " + std::to_string(threads) +
                                        " replay threads");
    }
  }
}

TEST(DynamicRestartTest, RestartFailsAtomicallyOnUnregisteredFactory) {
  const std::string image = EncodeEntryRecord(Journal::Entry::Lifecycle(
      LifecycleRecord{LifecycleRecord::Kind::kCreate, "X", "nope"}));

  TxnManager restarted;  // no factory registered
  EXPECT_EQ(restarted.RestartFromImage(image, nullptr).code(),
            StatusCode::kInternal);
  // Fail-atomic: the half-replayed create was never published.
  EXPECT_EQ(restarted.object("X"), nullptr);
  EXPECT_TRUE(restarted.objects().empty());
}

// ---------------------------------------------------------------------------
// Crash sweeps over lifecycle-performing workloads
// ---------------------------------------------------------------------------

void LifecycleSystemFactory(TxnManager* manager) {
  RegisterCounterFactory(manager);
}

// Mixes lazy creates, increments, and drops over a small id space so crash
// points land between create records, commits, and drop records.
TxnBody LifecycleBody() {
  return [](TxnManager* manager, Transaction* txn, Random* rng) -> Status {
    const std::string id = "DYN" + std::to_string(rng->Uniform(6));
    const StatusOr<AtomicObject*> obj =
        manager->GetOrCreate(id, kCounterFactory);
    if (!obj.ok()) return obj.status();
    const StatusOr<Value> r =
        manager->Execute(txn, IncInv(id, rng->UniformRange(1, 5)));
    if (!r.ok()) {
      // A racing thread dropped the id between our create and Execute;
      // commit the (now empty) transaction and move on.
      if (r.status().code() == StatusCode::kNotFound) return Status::OK();
      return r.status();
    }
    if (rng->Uniform(4) == 0) {
      const std::string victim = "DYN" + std::to_string(rng->Uniform(6));
      // Refused (live transactions, possibly ourselves) or absent is fine.
      const Status dropped = manager->DropObject(victim);
      if (!dropped.ok() && dropped.code() != StatusCode::kIllegalState &&
          dropped.code() != StatusCode::kNotFound) {
        return dropped;
      }
    }
    return Status::OK();
  };
}

TEST(LifecycleCrashTest, CrashFractionSweepRecoversCleanly) {
  for (const DurabilityMode mode :
       {DurabilityMode::kSync, DurabilityMode::kGroup}) {
    for (const double fraction : {0.0, 0.35, 0.7, 1.0}) {
      CrashScenarioOptions options;
      options.driver.threads = 3;
      options.driver.txns_per_thread = 25;
      options.driver.seed = 11;
      options.crash_fraction = fraction;
      options.group_commit = GroupCommitOptions{mode};
      const CrashScenarioResult result =
          RunCrashScenario(LifecycleSystemFactory, LifecycleBody(), options);
      EXPECT_TRUE(result.ok())
          << "mode " << static_cast<int>(mode) << " fraction " << fraction
          << ": status " << result.status.ToString()
          << ", prefix_of_commit_order " << result.prefix_of_commit_order
          << ", state_matches_prefix " << result.state_matches_prefix
          << ", acked_recovered " << result.acked_recovered << ", acked "
          << result.acked_records << "/" << result.records_total;
      if (fraction == 1.0) {
        EXPECT_GT(result.records_total, 0u);
      }
    }
  }
}

TEST(LifecycleCrashTest, MaintenanceCrashPointsWithLifecycleRecords) {
  const std::vector<std::string> points = {
      "",  // clean run: checkpoints and truncations all land
      "rot.before_seal_sync", "rot.after_create",  "trunc.before_unlink",
      "trunc.after_unlink",   "store.torn_batch",  "store.after_batch",
      "store.before_sync"};
  for (const std::string& point : points) {
    StoreCrashOptions options;
    options.driver.threads = 2;
    options.driver.txns_per_thread = 30;
    options.driver.seed = 13;
    options.max_segment_bytes = 256;
    options.checkpoint_every = 12;
    options.evict_every = 0;
    options.crash_point = point;
    options.replay_threads = 2;
    const StoreCrashResult result = RunStoreCrashScenario(
        LifecycleSystemFactory, LifecycleBody(), options);
    EXPECT_TRUE(result.ok())
        << "point '" << point << "': status " << result.status.ToString()
        << ", appended " << result.records_appended << "/"
        << result.records_total << ", recovered_all_appended "
        << result.recovered_all_appended << ", state_matches_prefix "
        << result.state_matches_prefix;
    if (point.empty()) {
      EXPECT_FALSE(result.crash_fired);
      EXPECT_EQ(result.records_appended, result.records_total);
      EXPECT_GE(result.checkpoints_written, 1u);
    } else {
      EXPECT_TRUE(result.crash_fired)
          << "point '" << point << "' was never reached";
    }
  }
}

}  // namespace
}  // namespace ccr
