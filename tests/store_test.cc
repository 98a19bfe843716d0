// Copyright 2026 The ccr Authors.
//
// The persistent storage tier: ObjectStore backend contracts (atomic
// batches, torn-tail repair, artifact unlinking, compaction, reopen
// index rebuild, crash/failure injection), cold-object eviction through
// the TxnManager (evict / fault-in round trips, races against lazy
// GetOrCreate, DropObject and a second eviction, the watermark CLOCK
// sweep, fuzzy checkpoints over evicted objects), store-preferring and
// lazy restarts, dropped-key reconciliation, and the store-backend crash
// sweep (every store.* point, UIP and DU) auditing zero acked-but-lost
// records.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "adt/bank_account.h"
#include "adt/counter.h"
#include "adt/int_set.h"
#include "common/random.h"
#include "common/temp_path.h"
#include "sim/crash_harness.h"
#include "sim/memory_journal.h"
#include "store/log_store.h"
#include "store/mem_store.h"
#include "store/object_store.h"
#include "txn/checkpoint.h"
#include "txn/du_recovery.h"
#include "txn/group_commit.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

// Honors TMPDIR (sandboxed runners point it off /tmp).
class TempDir {
 public:
  TempDir() {
    path_ = MakeTempDir("ccr_store_test_");
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

Status PutOne(ObjectStore* store, const std::string& key,
              const std::string& value,
              ObjectStore::Durability durability =
                  ObjectStore::Durability::kSync) {
  StoreWriteBatch batch;
  batch.Put(key, value);
  return store->ApplyBatch(batch, durability);
}

std::map<std::string, std::string> Dump(ObjectStore* store) {
  std::map<std::string, std::string> out;
  CCR_CHECK(store
                ->Scan([&](const std::string& k, const std::string& v) {
                  out[k] = v;
                  return Status::OK();
                })
                .ok());
  return out;
}

// ---------------------------------------------------------------------------
// Backend contract (both backends)
// ---------------------------------------------------------------------------

void ExerciseBackendContract(ObjectStore* store) {
  // Empty values, binary keys/values (NUL, newline, CRC-hostile bytes) —
  // the store speaks opaque bytes, no escaping at this layer.
  const std::string bin_key("k\0ey\n", 5);
  const std::string bin_val("v\0\xff\n al", 7);
  StoreWriteBatch batch;
  batch.Put("plain", "value");
  batch.Put("empty", "");
  batch.Put(bin_key, bin_val);
  batch.Put("plain", "wins");  // later op wins within one batch
  ASSERT_TRUE(store->ApplyBatch(batch, ObjectStore::Durability::kSync).ok());

  StatusOr<std::string> got = store->Get("plain");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "wins");
  got = store->Get("empty");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "");
  got = store->Get(bin_key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, bin_val);
  EXPECT_EQ(store->Get("absent").status().code(), StatusCode::kNotFound);

  StoreWriteBatch del;
  del.Delete("plain");
  del.Delete("never-existed");
  ASSERT_TRUE(store->ApplyBatch(del, ObjectStore::Durability::kBuffered).ok());
  EXPECT_EQ(store->Get("plain").status().code(), StatusCode::kNotFound);

  const std::map<std::string, std::string> all = Dump(store);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(all.at("empty"), "");
  EXPECT_EQ(all.at(bin_key), bin_val);
  EXPECT_EQ(store->stats().live_keys, 2u);
}

TEST(MemStoreTest, BackendContract) {
  MemObjectStore store;
  ExerciseBackendContract(&store);
}

TEST(LogStoreTest, BackendContract) {
  TempDir dir;
  StatusOr<std::unique_ptr<LogStructuredStore>> store =
      LogStructuredStore::Open(dir.path());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExerciseBackendContract(store->get());
}

TEST(MemStoreTest, FailureInjectionLeavesBatchesAtomic) {
  MemObjectStore store;
  ASSERT_TRUE(PutOne(&store, "a", "1").ok());
  store.FailNextBatches(1);
  StoreWriteBatch batch;
  batch.Put("a", "2");
  batch.Put("b", "1");
  EXPECT_FALSE(store.ApplyBatch(batch, ObjectStore::Durability::kSync).ok());
  // Nothing from the failed batch landed.
  StatusOr<std::string> got = store.Get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "1");
  EXPECT_EQ(store.Get("b").status().code(), StatusCode::kNotFound);
  store.FailNextGets(1);
  EXPECT_EQ(store.Get("a").status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(store.Get("a").ok());  // injection consumed
  ASSERT_TRUE(store.ApplyBatch(batch, ObjectStore::Durability::kSync).ok());
  EXPECT_EQ(*store.Get("b"), "1");
}

// ---------------------------------------------------------------------------
// Log-structured backend specifics
// ---------------------------------------------------------------------------

TEST(LogStoreTest, ReopenRebuildsIndexAcrossRotation) {
  TempDir dir;
  LogStoreOptions options;
  options.max_segment_bytes = 256;  // rotate every few batches
  std::map<std::string, std::string> expected;
  {
    StatusOr<std::unique_ptr<LogStructuredStore>> store =
        LogStructuredStore::Open(dir.path(), options);
    ASSERT_TRUE(store.ok());
    Random rng(17);
    for (int i = 0; i < 60; ++i) {
      const std::string key = "k" + std::to_string(rng.Uniform(12));
      if (rng.Uniform(5) == 0) {
        StoreWriteBatch batch;
        batch.Delete(key);
        ASSERT_TRUE(
            (*store)
                ->ApplyBatch(batch, ObjectStore::Durability::kBuffered)
                .ok());
        expected.erase(key);
      } else {
        const std::string value = "v" + std::to_string(i);
        ASSERT_TRUE(PutOne(store->get(), key, value,
                           ObjectStore::Durability::kBuffered)
                        .ok());
        expected[key] = value;
      }
    }
    ASSERT_GT((*store)->stats().segments, 1u) << "scenario never rotated";
  }
  StatusOr<std::unique_ptr<LogStructuredStore>> reopened =
      LogStructuredStore::Open(dir.path(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Dump(reopened->get()), expected);
}

TEST(LogStoreTest, TornTailBatchDroppedAtReopen) {
  TempDir dir;
  {
    StatusOr<std::unique_ptr<LogStructuredStore>> store =
        LogStructuredStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(PutOne(store->get(), "durable", "yes").ok());
  }
  // Simulate a batch torn mid-write: garbage bytes (an unparseable frame)
  // at the physical end of the highest-numbered segment.
  StatusOr<std::vector<std::string>> names = ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  std::string last;
  for (const std::string& name : *names) {
    if (name.rfind("store.", 0) == 0 && name > last) last = name;
  }
  ASSERT_FALSE(last.empty());
  {
    std::FILE* f = std::fopen((dir.path() + "/" + last).c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = "\x40\x00\x00\x00halfwrit";
    ASSERT_EQ(std::fwrite(torn, 1, sizeof(torn) - 1, f), sizeof(torn) - 1);
    std::fclose(f);
  }
  StatusOr<std::unique_ptr<LogStructuredStore>> reopened =
      LogStructuredStore::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(*(*reopened)->Get("durable"), "yes");
  EXPECT_GT((*reopened)->stats().bytes_truncated, 0u);
}

TEST(LogStoreTest, HeaderlessArtifactUnlinkedAtReopen) {
  TempDir dir;
  {
    StatusOr<std::unique_ptr<LogStructuredStore>> store =
        LogStructuredStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(PutOne(store->get(), "k", "v").ok());
  }
  // A crash between segment creation and header sync leaves a file whose
  // header frame never became durable — legal only as the last segment.
  const std::string artifact = dir.path() + "/store.000099";
  {
    std::FILE* f = std::fopen(artifact.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a frame", f);
    std::fclose(f);
  }
  StatusOr<std::unique_ptr<LogStructuredStore>> reopened =
      LogStructuredStore::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(*(*reopened)->Get("k"), "v");
  EXPECT_NE(::access(artifact.c_str(), F_OK), 0) << "artifact survived";
}

TEST(LogStoreTest, MidLogCorruptionFailsOpen) {
  TempDir dir;
  LogStoreOptions options;
  options.max_segment_bytes = 128;
  {
    StatusOr<std::unique_ptr<LogStructuredStore>> store =
        LogStructuredStore::Open(dir.path(), options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          PutOne(store->get(), "k" + std::to_string(i), "value").ok());
    }
    ASSERT_GT((*store)->stats().segments, 2u);
  }
  // Flip bytes in the middle of the LOWEST segment: damage in a sealed
  // segment is never a torn append and must refuse to open.
  StatusOr<std::vector<std::string>> names = ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  std::string first;
  for (const std::string& name : *names) {
    if (name.rfind("store.", 0) != 0) continue;
    if (first.empty() || name < first) first = name;
  }
  ASSERT_FALSE(first.empty());
  {
    std::FILE* f = std::fopen((dir.path() + "/" + first).c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 30, SEEK_SET), 0);
    std::fputs("XXXX", f);
    std::fclose(f);
  }
  EXPECT_EQ(LogStructuredStore::Open(dir.path(), options).status().code(),
            StatusCode::kInternal);
}

TEST(LogStoreTest, CompactionReclaimsOldestSegmentAndKeepsLiveKeys) {
  TempDir dir;
  LogStoreOptions options;
  options.max_segment_bytes = 256;
  options.compact_dead_fraction = -1;  // manual CompactNow only
  StatusOr<std::unique_ptr<LogStructuredStore>> store =
      LogStructuredStore::Open(dir.path(), options);
  ASSERT_TRUE(store.ok());
  // Overwrite a small key set until several segments exist: the oldest is
  // then mostly dead bytes.
  for (int round = 0; round < 10; ++round) {
    for (int k = 0; k < 4; ++k) {
      ASSERT_TRUE(PutOne(store->get(), "key" + std::to_string(k),
                         "round" + std::to_string(round))
                      .ok());
    }
  }
  const ObjectStoreStats before = (*store)->stats();
  ASSERT_GT(before.segments, 2u);
  ASSERT_TRUE((*store)->CompactNow().ok());
  const ObjectStoreStats after = (*store)->stats();
  EXPECT_EQ(after.compactions, before.compactions + 1);
  EXPECT_LE(after.segments, before.segments);
  for (int k = 0; k < 4; ++k) {
    StatusOr<std::string> got = (*store)->Get("key" + std::to_string(k));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, "round9");
  }
  // Still consistent after a reopen (the rewrite + unlink were durable).
  store->reset();
  StatusOr<std::unique_ptr<LogStructuredStore>> reopened =
      LogStructuredStore::Open(dir.path(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Dump(reopened->get()).size(), 4u);
}

TEST(LogStoreTest, BatchCrashPointsAreAllOrNothing) {
  for (const std::string point :
       {"store.before_batch", "store.torn_batch", "store.after_batch",
        "store.before_sync"}) {
    TempDir dir;
    CrashPoints crash;
    LogStoreOptions options;
    options.crash = &crash;
    {
      StatusOr<std::unique_ptr<LogStructuredStore>> store =
          LogStructuredStore::Open(dir.path(), options);
      ASSERT_TRUE(store.ok()) << point;
      ASSERT_TRUE(PutOne(store->get(), "pre", "crash").ok()) << point;
      crash.Arm(point);
      StoreWriteBatch batch;
      batch.Put("a", "1");
      batch.Put("b", "2");
      EXPECT_FALSE(
          (*store)->ApplyBatch(batch, ObjectStore::Durability::kSync).ok())
          << point;
      // Dead machine: every later call fails too.
      EXPECT_FALSE(PutOne(store->get(), "later", "x").ok()) << point;
      EXPECT_TRUE(crash.fired()) << point;
    }
    StatusOr<std::unique_ptr<LogStructuredStore>> reopened =
        LogStructuredStore::Open(dir.path());
    ASSERT_TRUE(reopened.ok()) << point << ": "
                               << reopened.status().ToString();
    EXPECT_EQ(*(*reopened)->Get("pre"), "crash") << point;
    const bool has_a = (*reopened)->Get("a").ok();
    const bool has_b = (*reopened)->Get("b").ok();
    EXPECT_EQ(has_a, has_b) << point << ": torn batch surfaced";
    if (point == "store.before_batch" || point == "store.torn_batch") {
      EXPECT_FALSE(has_a) << point;
    }
  }
}

// Regression: a mid-frame write failure (ENOSPC/EIO) used to leave the fd
// offset ahead of the indexed log — later frames were written past where
// the index said they start, so point reads served wrong bytes and reopen
// refused the store as corrupt mid-file. The failed append must roll the
// segment back to the last frame boundary and leave the store usable.
TEST(LogStoreTest, PartialAppendRolledBackKeepsStoreUsable) {
  TempDir dir;
  StatusOr<std::unique_ptr<LogStructuredStore>> store =
      LogStructuredStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(PutOne(store->get(), "a", "1").ok());

  (*store)->FailNextAppendPartially();
  StoreWriteBatch batch;
  batch.Put("b", "2");
  EXPECT_FALSE(
      (*store)->ApplyBatch(batch, ObjectStore::Durability::kSync).ok());
  // Nothing from the failed batch is visible, and the store keeps
  // working: the partial frame was truncated away, so the next frame
  // lands exactly where the index says it does.
  EXPECT_EQ((*store)->Get("b").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*(*store)->Get("a"), "1");
  ASSERT_TRUE(PutOne(store->get(), "b", "2").ok());
  EXPECT_EQ(*(*store)->Get("b"), "2");

  // Reopen sees no torn bytes mid-file and both keys durable.
  store->reset();
  StatusOr<std::unique_ptr<LogStructuredStore>> reopened =
      LogStructuredStore::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(*(*reopened)->Get("a"), "1");
  EXPECT_EQ(*(*reopened)->Get("b"), "2");
  EXPECT_EQ((*reopened)->stats().bytes_truncated, 0u)
      << "rollback left torn bytes for reopen to repair";
}

// ---------------------------------------------------------------------------
// Eviction through the manager
// ---------------------------------------------------------------------------

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

Invocation IncInv(const ObjectId& id, int64_t amount) {
  return Invocation(id, Counter::kInc, "inc", {Value(amount)});
}

Invocation ReadInv(const ObjectId& id) {
  return Invocation(id, Counter::kRead, "read", {});
}

// A manager journaling onto an in-memory disk, with a MemObjectStore
// attached: the smallest world where eviction, fault-in, store
// checkpoints, and restart all compose.
struct StoreWorld {
  MemObjectStore store;
  MemoryJournal disk;
  Journal& journal = disk.journal;
  TxnManager manager;

  explicit StoreWorld(TxnManagerOptions options = {}) : manager(options) {
    RegisterCounterFactory(&manager);
    manager.set_object_store(&store);
    manager.set_lifecycle_journal(&journal);
  }

  Status Inc(const std::string& id, int64_t amount) {
    return manager.RunTransaction([&](Transaction* txn) {
      const StatusOr<AtomicObject*> obj =
          manager.GetOrCreate(id, kCounterFactory);
      if (!obj.ok()) return obj.status();
      return manager.Execute(txn, IncInv(id, amount)).status();
    });
  }

  StatusOr<int64_t> Read(const std::string& id) {
    int64_t out = 0;
    const Status status = manager.RunTransaction([&](Transaction* txn) {
      const StatusOr<Value> v = manager.Execute(txn, ReadInv(id));
      if (!v.ok()) return v.status();
      out = v->AsInt();
      return Status::OK();
    });
    if (!status.ok()) return status;
    return out;
  }
};

TEST(EvictionTest, EvictThenExecuteFaultsBackIn) {
  StoreWorld world;
  ASSERT_TRUE(world.Inc("D1", 7).ok());
  ASSERT_TRUE(world.Inc("D1", 5).ok());

  ASSERT_TRUE(world.manager.EvictObject("D1").ok());
  AtomicObject* obj = world.manager.object("D1");
  ASSERT_NE(obj, nullptr) << "eviction must keep the shell resident";
  EXPECT_TRUE(obj->evicted());
  EXPECT_EQ(world.manager.evicted_objects(), 1u);
  // The image is in the store under the object key, at the object's LSN.
  StatusOr<std::string> img = world.store.Get(StoreObjectKey("D1"));
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  StatusOr<CheckpointImage::ObjectEntry> entry = DecodeStoreObjectValue(*img);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->factory, kCounterFactory);
  EXPECT_EQ(entry->lsn, obj->last_committed_lsn());

  // Double-evict refused; execution faults the state back in.
  EXPECT_EQ(world.manager.EvictObject("D1").code(),
            StatusCode::kIllegalState);
  StatusOr<int64_t> value = world.Read("D1");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, 12);
  EXPECT_FALSE(obj->evicted());
  EXPECT_EQ(world.manager.evicted_objects(), 0u);
  ASSERT_TRUE(world.Inc("D1", 1).ok());
  EXPECT_EQ(*world.Read("D1"), 13);
}

// Regression: the two-phase eviction gap must detect a commit that starts
// AND finishes between BeginEvict and FinishEvict. With a volatile journal
// every commit sequences at kNoLsn, so an LSN comparison alone is blind to
// the race and the stale image would silently swallow the commit — the
// ticket carries a journal-independent commit tick instead.
TEST(EvictionTest, FinishEvictDetectsRacedCommitWithoutDurableLsns) {
  StoreWorld world;
  world.journal.set_pipeline(nullptr);  // volatile: appends return kNoLsn
  ASSERT_TRUE(world.Inc("D1", 6).ok());
  AtomicObject* obj = world.manager.object("D1");
  ASSERT_NE(obj, nullptr);
  ASSERT_EQ(obj->last_committed_lsn(), kNoLsn);

  StatusOr<AtomicObject::EvictTicket> ticket = obj->BeginEvict();
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  // An entire Execute+Commit lands inside the two-phase gap. The LSN is
  // still kNoLsn afterwards — only the commit tick can tell.
  ASSERT_TRUE(world.Inc("D1", 1).ok());
  ASSERT_EQ(obj->last_committed_lsn(), ticket->lsn);

  EXPECT_FALSE(obj->FinishEvict(*ticket))
      << "eviction swallowed a commit that raced the two-phase gap";
  EXPECT_FALSE(obj->evicted());
  EXPECT_EQ(*world.Read("D1"), 7);

  // With no racing commit the same protocol still evicts.
  ticket = obj->BeginEvict();
  ASSERT_TRUE(ticket.ok());
  EXPECT_TRUE(obj->FinishEvict(*ticket));
  EXPECT_TRUE(obj->evicted());
}

// A Counter whose state encoding runs a callback first. BeginEvict encodes
// under the object mutex, so the callback tells a test that an eviction
// holds its ticket before the test moves the object on.
class EncodeNotifyingCounter final : public Adt {
 public:
  EncodeNotifyingCounter(std::shared_ptr<Counter> inner,
                         std::function<void()> on_encode)
      : inner_(std::move(inner)), on_encode_(std::move(on_encode)) {}

  std::string name() const override { return inner_->name(); }
  const SpecAutomaton& spec() const override { return inner_->spec(); }
  std::vector<Operation> Universe() const override {
    return inner_->Universe();
  }
  bool CommuteForward(const Operation& p,
                      const Operation& q) const override {
    return inner_->CommuteForward(p, q);
  }
  bool RightCommutesBackward(const Operation& p,
                             const Operation& q) const override {
    return inner_->RightCommutesBackward(p, q);
  }
  bool IsUpdate(const Operation& op) const override {
    return inner_->IsUpdate(op);
  }
  std::optional<std::unique_ptr<SpecState>> InverseApply(
      const SpecState& state, const Operation& op) const override {
    return inner_->InverseApply(state, op);
  }
  bool supports_inverse() const override {
    return inner_->supports_inverse();
  }
  bool supports_state_codec() const override { return true; }
  std::string EncodeState(const SpecState& state) const override {
    on_encode_();
    return inner_->EncodeState(state);
  }
  StatusOr<std::unique_ptr<SpecState>> DecodeState(
      std::string_view encoded) const override {
    return inner_->DecodeState(encoded);
  }

 private:
  std::shared_ptr<Counter> inner_;
  std::function<void()> on_encode_;
};

// Regression: two evictions of one object, the older one reaching the
// store after the newer one won. Eviction A takes its ticket, a commit
// moves the object on, and eviction B writes the newer image and flips the
// object to evicted; only then does A get the store mutex. A must not Put
// its older image over B's, or the next fault-in installs it and the
// commit is lost (with a volatile journal both tickets even carry kNoLsn).
TEST(EvictionTest, StaleEvictionDoesNotOverwriteTheWinnersImage) {
  StoreWorld world;
  constexpr const char* kFactory = "notifying-counter";
  std::atomic<bool> armed{false};
  std::promise<void> ticket_taken;
  world.manager.RegisterFactory(kFactory, [&](const ObjectId& id) {
    std::shared_ptr<Counter> ctr = MakeCounter(id);
    ObjectConfig config;
    config.adt = std::make_shared<EncodeNotifyingCounter>(ctr, [&] {
      if (armed.exchange(false)) ticket_taken.set_value();
    });
    config.conflict = MakeNrbcConflict(ctr);
    config.recovery = std::make_unique<UipRecovery>(ctr);
    return config;
  });
  const auto inc = [&]() {
    return world.manager.RunTransaction([&](Transaction* txn) {
      const StatusOr<AtomicObject*> obj =
          world.manager.GetOrCreate("D1", kFactory);
      if (!obj.ok()) return obj.status();
      return world.manager.Execute(txn, IncInv("D1", 1)).status();
    });
  };
  ASSERT_TRUE(inc().ok());
  AtomicObject* obj = world.manager.object("D1");
  ASSERT_NE(obj, nullptr);

  Status a_status;
  std::thread a;
  {
    // Holding the store mutex parks A between its ticket and its Put.
    std::lock_guard<std::mutex> hold(world.manager.store_mutex());
    armed = true;
    a = std::thread([&] { a_status = world.manager.EvictObject("D1"); });
    ticket_taken.get_future().wait();  // A's ticket holds the value 1
    EXPECT_TRUE(inc().ok());
    // B, the winner: the same store step EvictObject runs, under the
    // store mutex this thread already holds.
    StatusOr<AtomicObject::EvictTicket> b = obj->BeginEvict();
    EXPECT_TRUE(b.ok()) << b.status().ToString();
    if (b.ok()) {
      StoreWriteBatch batch;
      batch.Put(StoreObjectKey("D1"),
                EncodeStoreObjectValue(b->lsn, kFactory, b->encoded));
      EXPECT_TRUE(world.store
                      .ApplyBatch(batch, ObjectStore::Durability::kBuffered)
                      .ok());
      EXPECT_TRUE(obj->FinishEvict(*b));
    }
  }
  a.join();
  EXPECT_TRUE(a_status.ok()) << a_status.ToString();
  ASSERT_TRUE(obj->evicted());

  StatusOr<std::string> img = world.store.Get(StoreObjectKey("D1"));
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  StatusOr<CheckpointImage::ObjectEntry> entry = DecodeStoreObjectValue(*img);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->lsn, obj->last_committed_lsn())
      << "the losing eviction overwrote the winner's image";
  StatusOr<int64_t> value = world.Read("D1");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, 2);
}

TEST(EvictionTest, LazyGetOrCreateReturnsEvictedShellWithoutCreateRecord) {
  StoreWorld world;
  ASSERT_TRUE(world.Inc("D1", 3).ok());
  ASSERT_TRUE(world.manager.EvictObject("D1").ok());
  const Lsn records_before = world.journal.high_lsn();
  // GetOrCreate on an evicted id must hit the resident shell — no second
  // incarnation, no create record.
  StatusOr<AtomicObject*> obj =
      world.manager.GetOrCreate("D1", kCounterFactory);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(*obj, world.manager.object("D1"));
  EXPECT_EQ(world.journal.high_lsn(), records_before);
  EXPECT_EQ(*world.Read("D1"), 3);
}

TEST(EvictionTest, DropDeletesStoreKeyAndNextCreateIsFresh) {
  StoreWorld world;
  ASSERT_TRUE(world.Inc("D1", 9).ok());
  ASSERT_TRUE(world.manager.EvictObject("D1").ok());
  ASSERT_TRUE(world.store.Get(StoreObjectKey("D1")).ok());

  // Drop must also delete the store key — otherwise the next GetOrCreate
  // would fault the dropped incarnation's state back in as a "new" object.
  ASSERT_TRUE(world.manager.DropObject("D1").ok());
  EXPECT_EQ(world.store.Get(StoreObjectKey("D1")).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(world.Inc("D1", 1).ok());
  EXPECT_EQ(*world.Read("D1"), 1) << "dropped state resurrected";
}

TEST(EvictionTest, WatermarkSweepEvictsColdObjectsAndReadsStayCorrect) {
  TxnManagerOptions options;
  options.evict_high_watermark = 6;
  options.evict_low_watermark = 3;
  StoreWorld world(options);
  // Population (12) well above the high watermark; the sampled CLOCK
  // sweep needs a stream of Executes to tick, so keep touching objects.
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(world.Inc("C" + std::to_string(i), 1).ok());
    }
  }
  EXPECT_GT(world.manager.evicted_objects(), 0u)
      << "sweep never evicted despite population > watermark";
  // Every object still reads its true value (evicted ones fault in).
  for (int i = 0; i < 12; ++i) {
    StatusOr<int64_t> value = world.Read("C" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(*value, 8) << "C" << i;
  }
}

TEST(EvictionTest, FuzzyCheckpointSkipsEvictedObjectsButRestartSeesThem) {
  StoreWorld world;
  ASSERT_TRUE(world.Inc("D1", 4).ok());
  ASSERT_TRUE(world.Inc("D2", 6).ok());
  ASSERT_TRUE(world.manager.EvictObject("D1").ok());
  const uint64_t puts_before = world.store.stats().puts;

  CheckpointerOptions options;
  options.store = &world.store;
  Checkpointer checkpointer(/*dir=*/"", options);
  StatusOr<Lsn> anchor =
      checkpointer.Write(&world.manager, world.journal.high_lsn());
  ASSERT_TRUE(anchor.ok()) << anchor.status().ToString();
  // Incremental: the evicted object's image was already current; only the
  // resident object and the meta key were re-Put.
  EXPECT_EQ(world.store.stats().puts, puts_before + 2);

  StatusOr<CheckpointImage> image = LoadCheckpointFromStore(&world.store);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->anchor, *anchor);
  EXPECT_EQ(image->objects.size(), 2u);

  // A fresh manager restarting over the same store recovers both objects —
  // the evicted image and the checkpoint batch compose into one image.
  TxnManager restarted;
  RegisterCounterFactory(&restarted);
  restarted.set_object_store(&world.store);
  ASSERT_TRUE(restarted.RestartFromImage(world.disk.sink.image(), nullptr).ok());
  ASSERT_NE(restarted.object("D1"), nullptr);
  ASSERT_NE(restarted.object("D2"), nullptr);
  EXPECT_TRUE(restarted.object("D1")->CommittedState()->Equals(
      *world.manager.object("D1")->CommittedState()));
  EXPECT_TRUE(restarted.object("D2")->CommittedState()->Equals(
      *world.manager.object("D2")->CommittedState()));
}

TEST(EvictionTest, RestartReconcilesDroppedKeyAfterLostDelete) {
  StoreWorld world;
  ASSERT_TRUE(world.Inc("D1", 2).ok());
  ASSERT_TRUE(world.manager.EvictObject("D1").ok());
  // The drop's store Delete "crashes away": the drop record is journaled
  // and the object retired, but the key survives in the store.
  world.store.FailNextBatches(1);
  EXPECT_FALSE(world.manager.DropObject("D1").ok());
  EXPECT_EQ(world.manager.object("D1"), nullptr);
  ASSERT_TRUE(world.store.Get(StoreObjectKey("D1")).ok());

  // Restart replays the drop record and reconciles the zombie key.
  TxnManager restarted;
  RegisterCounterFactory(&restarted);
  restarted.set_object_store(&world.store);
  ASSERT_TRUE(restarted.RestartFromImage(world.disk.sink.image(), nullptr).ok());
  EXPECT_EQ(restarted.object("D1"), nullptr);
  EXPECT_EQ(world.store.Get(StoreObjectKey("D1")).status().code(),
            StatusCode::kNotFound)
      << "zombie store key survived restart reconciliation";
}

// ---------------------------------------------------------------------------
// Store-preferring and lazy restarts from a journal directory
// ---------------------------------------------------------------------------

// A durable world: segmented journal + log-structured store sharing one
// directory, counter factory registered.
struct DurableWorld {
  TempDir dir;
  std::unique_ptr<LogStructuredStore> store;
  TxnManager manager;
  Journal journal;
  std::unique_ptr<SegmentedFileSink> sink;
  std::unique_ptr<JournalWriter> writer;
  std::unique_ptr<GroupCommitPipeline> pipeline;

  // `crash` (optional) is armed by the caller to kill the store.
  explicit DurableWorld(CrashPoints* crash = nullptr) {
    RegisterCounterFactory(&manager);
    LogStoreOptions store_options;
    store_options.crash = crash;
    StatusOr<std::unique_ptr<LogStructuredStore>> opened_store =
        LogStructuredStore::Open(dir.path(), store_options);
    CCR_CHECK(opened_store.ok());
    store = std::move(*opened_store);
    manager.set_object_store(store.get());
    SegmentedSinkOptions options;
    options.max_segment_bytes = 256;
    StatusOr<std::unique_ptr<SegmentedFileSink>> opened =
        SegmentedFileSink::Open(dir.path(), 1, options);
    CCR_CHECK(opened.ok());
    sink = std::move(*opened);
    writer = std::make_unique<JournalWriter>(sink.get());
    pipeline = std::make_unique<GroupCommitPipeline>(
        writer.get(), GroupCommitOptions{.mode = DurabilityMode::kSync});
    journal.set_pipeline(pipeline.get());
    manager.set_lifecycle_journal(&journal);
  }

  Status Inc(const std::string& id, int64_t amount) {
    return manager.RunTransaction([&](Transaction* txn) {
      const StatusOr<AtomicObject*> obj =
          manager.GetOrCreate(id, kCounterFactory);
      if (!obj.ok()) return obj.status();
      return manager.Execute(txn, IncInv(id, amount)).status();
    });
  }

  Checkpointer MakeCheckpointer() {
    CheckpointerOptions options;
    options.store = store.get();
    return Checkpointer(dir.path(), options);
  }
};

TEST(StoreRestartTest, RestartFromDirPrefersStoreCheckpoint) {
  DurableWorld world;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(world.Inc("C" + std::to_string(i), i + 1).ok());
  }
  Checkpointer checkpointer = world.MakeCheckpointer();
  const Lsn anchor = world.journal.high_lsn();
  StatusOr<Lsn> written = checkpointer.Write(&world.manager, anchor);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ASSERT_TRUE(world.sink->TruncateBelow(anchor).ok());
  ASSERT_TRUE(world.Inc("C0", 100).ok());  // tail past the anchor

  StatusOr<std::unique_ptr<LogStructuredStore>> store2 =
      LogStructuredStore::Open(world.dir.path());
  ASSERT_TRUE(store2.ok());
  TxnManager restarted;
  RegisterCounterFactory(&restarted);
  restarted.set_object_store(store2->get());
  StatusOr<RestartSummary> summary =
      restarted.RestartFromDir(world.dir.path());
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->checkpoint_anchor, anchor);
  EXPECT_EQ(summary->checkpoint_objects, 6u);
  EXPECT_EQ(summary->high_lsn, world.journal.high_lsn());
  for (int i = 0; i < 6; ++i) {
    const std::string id = "C" + std::to_string(i);
    ASSERT_NE(restarted.object(id), nullptr) << id;
    EXPECT_TRUE(restarted.object(id)->CommittedState()->Equals(
        *world.manager.object(id)->CommittedState()))
        << id;
  }
}

TEST(StoreRestartTest, LazyStoreInstallDefersUntouchedObjects) {
  DurableWorld world;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(world.Inc("C" + std::to_string(i), 10 + i).ok());
  }
  Checkpointer checkpointer = world.MakeCheckpointer();
  const Lsn anchor = world.journal.high_lsn();
  ASSERT_TRUE(checkpointer.Write(&world.manager, anchor).ok());
  ASSERT_TRUE(world.sink->TruncateBelow(anchor).ok());
  // The tail names only C0: everything else stays deferred in the store.
  ASSERT_TRUE(world.Inc("C0", 1).ok());

  StatusOr<std::unique_ptr<LogStructuredStore>> store2 =
      LogStructuredStore::Open(world.dir.path());
  ASSERT_TRUE(store2.ok());
  TxnManager restarted;
  RegisterCounterFactory(&restarted);
  restarted.set_object_store(store2->get());
  RestartOptions options;
  options.lazy_store_install = true;
  StatusOr<RestartSummary> summary =
      restarted.RestartFromDir(world.dir.path(), options);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->checkpoint_anchor, anchor);
  EXPECT_EQ(summary->store_deferred, 7u);
  EXPECT_EQ(summary->checkpoint_objects, 1u);  // only C0 materialized
  ASSERT_NE(restarted.object("C0"), nullptr);
  // The tail-named object materialized from its image, then replayed the
  // tail on top of it.
  EXPECT_TRUE(restarted.object("C0")->CommittedState()->Equals(
      *world.manager.object("C0")->CommittedState()));
  EXPECT_EQ(restarted.object("C3"), nullptr)
      << "deferred object entered the directory at restart";

  // First touch faults a deferred object in — through GetOrCreate (no new
  // create record: the store image IS the object) and through Execute.
  MemoryJournal journal2(summary->high_lsn);
  restarted.set_lifecycle_journal(&journal2.journal);
  StatusOr<AtomicObject*> c3 =
      restarted.GetOrCreate("C3", kCounterFactory);
  ASSERT_TRUE(c3.ok()) << c3.status().ToString();
  EXPECT_TRUE(journal2.Decode().entries.empty())
      << "fault-in journaled a create record";
  EXPECT_TRUE((*c3)->CommittedState()->Equals(
      *world.manager.object("C3")->CommittedState()));
  int64_t c5 = 0;
  ASSERT_TRUE(restarted
                  .RunTransaction([&](Transaction* txn) {
                    const StatusOr<Value> v =
                        restarted.Execute(txn, ReadInv("C5"));
                    if (!v.ok()) return v.status();
                    c5 = v->AsInt();
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(c5, 15);
}

// The lazy-install skip: a tail record past the anchor that a deferred
// object's own (fuzzy) image LSN already covers is skipped without
// materializing the object — it stays deferred, and its store image, which
// includes the record, is what a later fault-in reads.
TEST(StoreRestartTest, LazySkipLeavesCoveredObjectDeferred) {
  DurableWorld world;
  ASSERT_TRUE(world.Inc("D1", 4).ok());
  ASSERT_TRUE(world.Inc("D2", 5).ok());
  // Fuzzy checkpoint: the anchor is captured before D1's next commit, the
  // object walk after it — D1's image LSN covers a record past the anchor.
  const Lsn anchor = world.journal.high_lsn();
  ASSERT_TRUE(world.Inc("D1", 2).ok());
  ASSERT_TRUE(world.MakeCheckpointer().Write(&world.manager, anchor).ok());
  ASSERT_EQ(world.manager.object("D1")->last_committed_lsn(), anchor + 1);

  StatusOr<std::unique_ptr<LogStructuredStore>> store2 =
      LogStructuredStore::Open(world.dir.path());
  ASSERT_TRUE(store2.ok());
  TxnManager restarted;
  RegisterCounterFactory(&restarted);
  restarted.set_object_store(store2->get());
  RestartOptions options;
  options.lazy_store_install = true;
  StatusOr<RestartSummary> summary =
      restarted.RestartFromDir(world.dir.path(), options);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->checkpoint_anchor, anchor);
  EXPECT_EQ(summary->tail_records, 1u);
  EXPECT_EQ(summary->tail_skipped, 1u);
  EXPECT_EQ(summary->store_deferred, 2u) << "the covered record materialized";
  EXPECT_EQ(summary->checkpoint_objects, 0u);
  EXPECT_EQ(restarted.object("D1"), nullptr)
      << "a covered tail record must not materialize its deferred object";

  int64_t d1 = 0;
  ASSERT_TRUE(restarted
                  .RunTransaction([&](Transaction* txn) {
                    const StatusOr<Value> v =
                        restarted.Execute(txn, ReadInv("D1"));
                    if (!v.ok()) return v.status();
                    d1 = v->AsInt();
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(d1, 6);
}

// The store re-delete on a deferred drop. The pre-crash drop's buffered
// store Delete is lost, so its key survives into a lazy restart whose tail
// drops the (deferred) object. That restart must delete the key again:
// once a later checkpoint moves the anchor past the drop record, a
// surviving key would be part of the checkpoint image and resurrect the
// object at the next restart.
TEST(StoreRestartTest, DeferredDropReDeletesKeyLostBeforeCrash) {
  CrashPoints crash;
  DurableWorld world(&crash);
  const std::string& dir = world.dir.path();
  ASSERT_TRUE(world.Inc("D1", 3).ok());
  ASSERT_TRUE(world.Inc("D2", 7).ok());
  const Lsn anchor = world.journal.high_lsn();
  ASSERT_TRUE(world.MakeCheckpointer().Write(&world.manager, anchor).ok());
  ASSERT_TRUE(world.sink->TruncateBelow(anchor).ok());
  // The drop is journaled, then the machine dies before its store Delete:
  // from here on the world's store writes nothing, and the world is not
  // used again.
  crash.Arm("store.before_batch");
  EXPECT_FALSE(world.manager.DropObject("D2").ok());
  ASSERT_TRUE(crash.fired());
  const Lsn drop_lsn = world.journal.high_lsn();
  ASSERT_EQ(drop_lsn, anchor + 1);

  Lsn high = 0;
  {
    // Restart 1, lazy: D2 is deferred, and the tail's drop record names it.
    StatusOr<std::unique_ptr<LogStructuredStore>> store =
        LogStructuredStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Get(StoreObjectKey("D2")).ok())
        << "the lost Delete should have left the key behind";
    TxnManager restarted;
    RegisterCounterFactory(&restarted);
    restarted.set_object_store(store->get());
    RestartOptions options;
    options.lazy_store_install = true;
    StatusOr<RestartSummary> summary = restarted.RestartFromDir(dir, options);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_EQ(summary->tail_records, 1u);
    EXPECT_EQ(summary->store_deferred, 1u);  // D1; D2's entry was dropped
    EXPECT_EQ(restarted.object("D2"), nullptr);
    high = summary->high_lsn;
    ASSERT_EQ(high, drop_lsn);

    // The next generation checkpoints past the drop record and truncates
    // it away; the checkpoint's sync also hardens the restart's buffered
    // re-delete.
    StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
        SegmentedFileSink::Open(dir, high + 1, SegmentedSinkOptions{});
    ASSERT_TRUE(sink.ok());
    CheckpointerOptions ckpt_options;
    ckpt_options.store = store->get();
    ASSERT_TRUE(Checkpointer(dir, ckpt_options).Write(&restarted, high).ok());
    ASSERT_TRUE((*sink)->TruncateBelow(high).ok());
  }

  // Restart 2, eager: the image must not bring D2 back.
  StatusOr<std::unique_ptr<LogStructuredStore>> store =
      LogStructuredStore::Open(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->Get(StoreObjectKey("D2")).status().code(),
            StatusCode::kNotFound)
      << "the dropped object's store key survived restart";
  TxnManager restarted;
  RegisterCounterFactory(&restarted);
  restarted.set_object_store(store->get());
  StatusOr<RestartSummary> summary = restarted.RestartFromDir(dir);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->checkpoint_anchor, high);
  EXPECT_EQ(restarted.object("D2"), nullptr) << "dropped object resurrected";
  ASSERT_NE(restarted.object("D1"), nullptr);
  const std::shared_ptr<Transaction> txn = restarted.Begin();
  EXPECT_EQ(restarted.Execute(txn.get(), ReadInv("D2")).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(restarted.Abort(txn.get()).ok());
}

// The bucket purge on drop. A registered object dropped before the
// checkpoint walk has no image entry, so restart rebuilds it from its
// initial state — and its pre-drop records past the anchor are a partial
// history that need not replay there (a withdraw against a zero balance).
// The drop discards that incarnation, so the bucketed replay must purge
// its records rather than replay them, and a one-thread restart must not
// stream them (it falls back to bucketed replay) before the drop is seen.
TEST(StoreRestartTest, DropPurgesPartialHistoryOfRegisteredObject) {
  DurableWorld world;
  const auto ba = MakeBankAccount();
  world.manager.AddObject("BA", ba, MakeNrbcConflict(ba),
                          std::make_unique<UipRecovery>(ba));
  world.manager.object("BA")->recovery().set_journal(&world.journal);
  const auto run = [&](const Invocation& inv) {
    return world.manager.RunTransaction([&](Transaction* txn) {
      return world.manager.Execute(txn, inv).status();
    });
  };
  ASSERT_TRUE(run(ba->DepositInv(5)).ok());
  const Lsn anchor = world.journal.high_lsn();
  ASSERT_TRUE(run(ba->WithdrawInv(5)).ok());
  ASSERT_TRUE(world.Inc("C0", 1).ok());
  ASSERT_TRUE(world.manager.DropObject("BA").ok());
  ASSERT_TRUE(world.MakeCheckpointer().Write(&world.manager, anchor).ok());

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " replay threads");
    TxnManager restarted;
    RegisterCounterFactory(&restarted);
    restarted.AddObject("BA", ba, MakeNrbcConflict(ba),
                        std::make_unique<UipRecovery>(ba));
    restarted.set_object_store(world.store.get());
    StatusOr<RestartSummary> summary = restarted.RestartFromDir(
        world.dir.path(), RestartOptions{threads});
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_EQ(summary->checkpoint_anchor, anchor);
    EXPECT_EQ(restarted.object("BA"), nullptr);
    ASSERT_NE(restarted.object("C0"), nullptr);
  }
}

// The other side of the one-thread fallback to bucketed replay: a
// registered object absent from the image only because it was registered
// after the checkpoint walk. No create or drop settles it, so its held
// records replay when the scan ends.
TEST(StoreRestartTest, HeldRecordsOfRegisteredObjectReplayAtScanEnd) {
  DurableWorld world;
  ASSERT_TRUE(world.Inc("C0", 1).ok());
  ASSERT_TRUE(world.MakeCheckpointer()
                  .Write(&world.manager, world.journal.high_lsn())
                  .ok());
  const auto ba = MakeBankAccount();
  world.manager.AddObject("BA", ba, MakeNrbcConflict(ba),
                          std::make_unique<UipRecovery>(ba));
  world.manager.object("BA")->recovery().set_journal(&world.journal);
  ASSERT_TRUE(world.manager
                  .RunTransaction([&](Transaction* txn) {
                    return world.manager.Execute(txn, ba->DepositInv(5))
                        .status();
                  })
                  .ok());
  ASSERT_TRUE(world.Inc("C0", 2).ok());

  for (const int threads : {1, 2}) {
    SCOPED_TRACE(std::to_string(threads) + " replay threads");
    TxnManager restarted;
    RegisterCounterFactory(&restarted);
    restarted.AddObject("BA", ba, MakeNrbcConflict(ba),
                        std::make_unique<UipRecovery>(ba));
    restarted.set_object_store(world.store.get());
    StatusOr<RestartSummary> summary = restarted.RestartFromDir(
        world.dir.path(), RestartOptions{threads});
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    for (const char* id : {"BA", "C0"}) {
      ASSERT_NE(restarted.object(id), nullptr) << id;
      EXPECT_TRUE(restarted.object(id)->CommittedState()->Equals(
          *world.manager.object(id)->CommittedState()))
          << id;
    }
  }
}

// Regression: between the checkpoint's snapshot walk and its store batch,
// an object can commit and be evicted, leaving the store a NEWER image
// than the walk's snapshot. The batch must skip that key: Putting the
// stale snapshot over it desynchronizes the image's LSN from the object's
// last committed LSN, so every later fault-in fails with kInternal until
// restart — and no later checkpoint repairs the key, because evicted
// objects' Puts are skipped.
TEST(StoreCheckpointTest, BatchSkipsObjectEvictedDuringTheWalk) {
  DurableWorld world;
  ASSERT_TRUE(world.Inc("D1", 4).ok());

  CheckpointerOptions options;
  options.store = world.store.get();
  options.after_walk = [&world] {
    ASSERT_TRUE(world.Inc("D1", 2).ok());
    ASSERT_TRUE(world.manager.EvictObject("D1").ok());
  };
  Checkpointer checkpointer(world.dir.path(), options);
  const StatusOr<Lsn> anchor =
      checkpointer.Write(&world.manager, world.journal.high_lsn());
  ASSERT_TRUE(anchor.ok()) << anchor.status().ToString();

  AtomicObject* obj = world.manager.object("D1");
  ASSERT_NE(obj, nullptr);
  ASSERT_TRUE(obj->evicted());
  StatusOr<std::string> img = world.store->Get(StoreObjectKey("D1"));
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  StatusOr<CheckpointImage::ObjectEntry> entry = DecodeStoreObjectValue(*img);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->lsn, obj->last_committed_lsn())
      << "checkpoint clobbered the newer eviction image with its stale "
         "walk snapshot";

  // Execution faults the state back in and reads the post-walk value.
  int64_t value = 0;
  const Status read = world.manager.RunTransaction([&](Transaction* txn) {
    const StatusOr<Value> v = world.manager.Execute(txn, ReadInv("D1"));
    if (!v.ok()) return v.status();
    value = v->AsInt();
    return Status::OK();
  });
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(value, 6);
}

// ---------------------------------------------------------------------------
// Store-backend crash sweep
// ---------------------------------------------------------------------------

void StoreSweepUipFactory(TxnManager* manager) {
  RegisterCounterFactory(manager);
  auto ba = MakeBankAccount();
  auto set = MakeIntSet();
  manager->AddObject("BA", ba, MakeNrbcConflict(ba),
                     std::make_unique<UipRecovery>(ba));
  manager->AddObject("SET", set, MakeNrbcConflict(set),
                     std::make_unique<UipRecovery>(set));
}

// DU needs (at least) NFC — Theorem 10. Under NRBC two concurrent
// withdraws can each pass against the base and jointly overdraw it at
// commit.
void StoreSweepDuFactory(TxnManager* manager) {
  RegisterCounterFactory(manager);
  auto ba = MakeBankAccount();
  auto set = MakeIntSet();
  manager->AddObject("BA", ba, MakeNfcConflict(ba),
                     std::make_unique<DuRecovery>(ba));
  manager->AddObject("SET", set, MakeNfcConflict(set),
                     std::make_unique<DuRecovery>(set));
}

// Eager-object ops plus dynamic-counter churn, so store crash points land
// between eviction Puts, checkpoint batches, drop Deletes, and fault-ins.
TxnBody StoreSweepBody() {
  const auto ba = MakeBankAccount();
  const auto set = MakeIntSet();
  return [ba, set](TxnManager* manager, Transaction* txn,
                   Random* rng) -> Status {
    switch (rng->UniformRange(0, 4)) {
      case 0: {
        const StatusOr<Value> r =
            manager->Execute(txn, ba->DepositInv(rng->UniformRange(1, 9)));
        return r.status();
      }
      case 1: {
        const StatusOr<Value> r =
            manager->Execute(txn, set->InsertInv(rng->UniformRange(1, 8)));
        return r.status();
      }
      case 2: {
        const std::string id = "DYN" + std::to_string(rng->Uniform(4));
        const StatusOr<AtomicObject*> obj =
            manager->GetOrCreate(id, kCounterFactory);
        if (!obj.ok()) return obj.status();
        const StatusOr<Value> r =
            manager->Execute(txn, IncInv(id, rng->UniformRange(1, 5)));
        if (!r.ok() && r.status().code() == StatusCode::kNotFound) {
          return Status::OK();  // raced a drop
        }
        return r.status();
      }
      case 3: {
        const std::string victim = "DYN" + std::to_string(rng->Uniform(4));
        const Status dropped = manager->DropObject(victim);
        if (!dropped.ok() && dropped.code() != StatusCode::kIllegalState &&
            dropped.code() != StatusCode::kNotFound) {
          return dropped;
        }
        return Status::OK();
      }
      default: {
        const StatusOr<Value> r =
            manager->Execute(txn, ba->WithdrawInv(rng->UniformRange(1, 4)));
        return r.status();
      }
    }
  };
}

// The one maintenance crash sweep: every journal rotation and truncation
// point and every store batch, rotation, and compaction point, with
// eviction off (the checkpoint-only run) and on, under UIP+NRBC and DU+NFC.
TEST(StoreCrashTest, RecoveryConsistentAtEveryStoreCrashPoint) {
  const std::vector<std::string> points = {
      "",  // clean run: evictions, checkpoints, compactions all land
      "rot.before_seal_sync", "rot.before_seal_close", "rot.after_create",
      "rot.before_header_sync", "trunc.before_unlink", "trunc.after_unlink",
      "trunc.before_dirsync", "store.before_batch", "store.torn_batch",
      "store.after_batch", "store.before_sync", "store.rot.before_seal",
      "store.rot.before_header_sync", "store.compact.before_rewrite",
      "store.compact.before_unlink", "store.compact.before_dirsync"};
  struct Mode {
    const char* name;
    SystemFactory factory;
  };
  const std::vector<Mode> modes = {{"UIP", StoreSweepUipFactory},
                                   {"DU", StoreSweepDuFactory}};
  for (const Mode& mode : modes) {
    for (const size_t evict_every : {0u, 3u}) {
      for (const std::string& point : points) {
        SCOPED_TRACE(std::string(mode.name) + ", evict_every " +
                     std::to_string(evict_every) + ", point '" + point + "'");
        StoreCrashOptions options;
        options.driver.threads = 2;
        options.driver.txns_per_thread = 40;
        options.driver.seed = 13;
        options.max_segment_bytes = 256;
        options.store_segment_bytes = 256;
        options.checkpoint_every = 12;
        options.evict_every = evict_every;
        options.crash_point = point;
        options.replay_threads = 2;
        const StoreCrashResult result =
            RunStoreCrashScenario(mode.factory, StoreSweepBody(), options);
        // ok() includes 0 acked records lost: recovery lands on exactly the
        // appended prefix, which holds every acked record.
        EXPECT_TRUE(result.ok())
            << "status " << result.status.ToString() << ", appended "
            << result.records_appended << "/" << result.records_total
            << ", acked " << result.acked_records
            << ", recovered_all_appended " << result.recovered_all_appended
            << ", state_matches_prefix " << result.state_matches_prefix
            << ", evictions " << result.evictions << ", checkpoints "
            << result.checkpoints_written << ", high_lsn "
            << result.summary.high_lsn;
        if (evict_every == 0) EXPECT_EQ(result.evictions, 0u);
        if (point.empty()) {
          EXPECT_FALSE(result.crash_fired);
          EXPECT_EQ(result.records_appended, result.records_total);
          if (evict_every != 0) EXPECT_GE(result.evictions, 1u);
          EXPECT_GE(result.checkpoints_written, 1u);
          EXPECT_GE(result.truncations, 1u);
          EXPECT_GE(result.store_compactions, 1u);
          EXPECT_GT(result.summary.checkpoint_anchor, 0u);
        } else {
          EXPECT_TRUE(result.crash_fired)
              << "point never reached — the sweep lost coverage (evictions "
              << result.evictions << ", checkpoints "
              << result.checkpoints_written << ", compactions "
              << result.store_compactions << ")";
        }
      }
    }
  }
}

// The ack-durability contract at the store boundary, swept across crash
// points AND maintenance cadences: whatever the store loses, every record
// whose journal sync completed must survive restart (0 acked-but-lost).
TEST(StoreCrashTest, NoAckedRecordLostAcrossCadences) {
  for (const size_t checkpoint_every : {5u, 17u}) {
    for (const std::string point :
         {"store.after_batch", "store.compact.before_unlink"}) {
      StoreCrashOptions options;
      options.driver.threads = 2;
      options.driver.txns_per_thread = 30;
      options.driver.seed = 29;
      options.store_segment_bytes = 256;
      options.checkpoint_every = checkpoint_every;
      options.evict_every = 2;
      options.crash_point = point;
      const StoreCrashResult result = RunStoreCrashScenario(
          StoreSweepUipFactory, StoreSweepBody(), options);
      ASSERT_TRUE(result.ok())
          << point << " every " << checkpoint_every << ": "
          << result.status.ToString();
      EXPECT_LE(result.acked_records, result.records_appended);
      EXPECT_TRUE(result.recovered_all_appended);
    }
  }
}

}  // namespace
}  // namespace ccr
