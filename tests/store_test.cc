// Copyright 2026 The ccr Authors.
//
// The persistent storage tier: ObjectStore backend contracts (atomic
// batches, torn-tail repair, artifact unlinking, compaction, reopen
// index rebuild, crash/failure injection), cold-object eviction through
// the TxnManager (evict / fault-in round trips, races against lazy
// GetOrCreate and DropObject, the watermark CLOCK sweep, fuzzy
// checkpoints over evicted objects), store-preferring and lazy restarts,
// dropped-key reconciliation, and the store-backend crash sweep (every
// store.* point, UIP and DU) auditing zero acked-but-lost records.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "adt/bank_account.h"
#include "adt/counter.h"
#include "adt/int_set.h"
#include "common/random.h"
#include "common/temp_path.h"
#include "sim/crash_harness.h"
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

// A manager journaling to an in-memory Journal, with a MemObjectStore
// attached: the smallest world where eviction, fault-in, store
// checkpoints, and restart all compose.
struct StoreWorld {
  TempDir dir;  // checkpointer home (unused unless also_write_file)
  MemObjectStore store;
  TxnManager manager;
  Journal journal;

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

// The crash image of a volatile journal: its entries framed exactly as a
// durable writer would have written them.
std::string ImageOf(const Journal& journal) {
  std::string image;
  journal.ForEachEntry([&](Lsn, const Journal::Entry& entry) {
    image += EncodeEntryRecord(entry);
  });
  return image;
}

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
  StoreWorld world;  // volatile Journal: AppendCommit returns kNoLsn
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

TEST(EvictionTest, LazyGetOrCreateReturnsEvictedShellWithoutCreateRecord) {
  StoreWorld world;
  ASSERT_TRUE(world.Inc("D1", 3).ok());
  ASSERT_TRUE(world.manager.EvictObject("D1").ok());
  const size_t records_before = world.journal.size();
  // GetOrCreate on an evicted id must hit the resident shell — no second
  // incarnation, no create record.
  StatusOr<AtomicObject*> obj =
      world.manager.GetOrCreate("D1", kCounterFactory);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(*obj, world.manager.object("D1"));
  EXPECT_EQ(world.journal.size(), records_before);
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

  Checkpointer checkpointer(world.dir.path(),
                            CheckpointerOptions{2, nullptr, &world.store});
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
  ASSERT_TRUE(restarted.RestartFromImage(ImageOf(world.journal), nullptr).ok());
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
  ASSERT_TRUE(restarted.RestartFromImage(ImageOf(world.journal), nullptr).ok());
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

  DurableWorld() {
    RegisterCounterFactory(&manager);
    StatusOr<std::unique_ptr<LogStructuredStore>> opened_store =
        LogStructuredStore::Open(dir.path());
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
};

TEST(StoreRestartTest, RestartFromDirPrefersStoreCheckpoint) {
  DurableWorld world;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(world.Inc("C" + std::to_string(i), i + 1).ok());
  }
  Checkpointer checkpointer(
      world.dir.path(), CheckpointerOptions{2, nullptr, world.store.get()});
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
  EXPECT_TRUE(summary->from_store);
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
  Checkpointer checkpointer(
      world.dir.path(), CheckpointerOptions{2, nullptr, world.store.get()});
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
  EXPECT_TRUE(summary->from_store);
  EXPECT_EQ(summary->store_deferred, 7u);
  EXPECT_EQ(summary->checkpoint_objects, 1u);  // only C0 materialized
  ASSERT_NE(restarted.object("C0"), nullptr);
  EXPECT_EQ(restarted.object("C3"), nullptr)
      << "deferred object entered the directory at restart";

  // First touch faults a deferred object in — through GetOrCreate (no new
  // create record: the store image IS the object) and through Execute.
  Journal journal2;
  journal2.set_base_lsn(summary->high_lsn);
  restarted.set_lifecycle_journal(&journal2);
  StatusOr<AtomicObject*> c3 =
      restarted.GetOrCreate("C3", kCounterFactory);
  ASSERT_TRUE(c3.ok()) << c3.status().ToString();
  EXPECT_EQ(journal2.size(), 0u) << "fault-in journaled a create record";
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

TEST(StoreCrashTest, RecoveryConsistentAtEveryStoreCrashPoint) {
  const std::vector<std::string> points = {
      "",  // clean run: evictions, checkpoints, compactions all land
      "store.before_batch", "store.torn_batch", "store.after_batch",
      "store.before_sync", "store.rot.before_seal",
      "store.rot.before_header_sync", "store.compact.before_rewrite",
      "store.compact.before_unlink", "store.compact.before_dirsync"};
  struct Mode {
    const char* name;
    SystemFactory factory;
  };
  const std::vector<Mode> modes = {{"UIP", StoreSweepUipFactory},
                                   {"DU", StoreSweepDuFactory}};
  for (const Mode& mode : modes) {
    for (const std::string& point : points) {
      StoreCrashOptions options;
      options.driver.threads = 2;
      options.driver.txns_per_thread = 40;
      options.driver.seed = 13;
      options.max_segment_bytes = 256;
      options.store_segment_bytes = 256;
      options.checkpoint_every = 12;
      options.evict_every = 3;
      options.crash_point = point;
      options.replay_threads = 2;
      const StoreCrashResult result =
          RunStoreCrashScenario(mode.factory, StoreSweepBody(), options);
      EXPECT_TRUE(result.ok())
          << mode.name << " point '" << point << "': status "
          << result.status.ToString() << ", appended "
          << result.records_appended << "/" << result.records_total
          << ", acked " << result.acked_records
          << ", recovered_all_appended " << result.recovered_all_appended
          << ", state_matches_prefix " << result.state_matches_prefix
          << ", evictions " << result.evictions << ", checkpoints "
          << result.checkpoints_written << ", high_lsn "
          << result.summary.high_lsn;
      if (point.empty()) {
        EXPECT_FALSE(result.crash_fired) << mode.name;
        EXPECT_EQ(result.records_appended, result.records_total)
            << mode.name;
        EXPECT_GE(result.evictions, 1u) << mode.name;
        EXPECT_GE(result.checkpoints_written, 1u) << mode.name;
        EXPECT_GE(result.store_compactions, 1u) << mode.name;
        EXPECT_TRUE(result.summary.from_store) << mode.name;
      } else {
        EXPECT_TRUE(result.crash_fired)
            << mode.name << ": point '" << point
            << "' never reached — the sweep lost coverage (evictions "
            << result.evictions << ", checkpoints "
            << result.checkpoints_written << ", compactions "
            << result.store_compactions << ")";
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
