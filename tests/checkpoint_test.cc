// Copyright 2026 The ccr Authors.
//
// Fuzzy checkpoints and the segmented journal: state-codec round trips for
// every ADT, the store image codec, checkpoint publication into the object
// store, segment rotation / truncation / continuity validation,
// checkpoint-then-tail restart (serial and parallel, with LSN-space
// continuation), the fail-atomic Restart regression, crash points across
// checkpoint publication, and a fuzzy checkpoint taken under live
// concurrent load.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#ifndef _WIN32
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "adt/bank_account.h"
#include "adt/bounded_counter.h"
#include "adt/counter.h"
#include "adt/fifo_queue.h"
#include "adt/int_set.h"
#include "adt/kv_store.h"
#include "adt/register.h"
#include "adt/registry.h"
#include "adt/semiqueue.h"
#include "adt/state_codec.h"
#include "common/random.h"
#include "sim/crash_harness.h"
#include "sim/memory_journal.h"
#include "store/log_store.h"
#include "txn/checkpoint.h"
#include "txn/du_recovery.h"
#include "txn/group_commit.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/ccr_ckpt_test_XXXXXX";
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

// ---------------------------------------------------------------------------
// State codecs
// ---------------------------------------------------------------------------

void ExpectRoundTrip(const Adt& adt, const SpecState& state) {
  ASSERT_TRUE(adt.supports_state_codec()) << adt.name();
  const std::string encoded = adt.EncodeState(state);
  EXPECT_EQ(encoded.find('\n'), std::string::npos) << adt.name();
  StatusOr<std::unique_ptr<SpecState>> decoded = adt.DecodeState(encoded);
  ASSERT_TRUE(decoded.ok()) << adt.name() << ": " << decoded.status().ToString();
  EXPECT_TRUE((*decoded)->Equals(state))
      << adt.name() << ": " << state.ToString() << " -> " << encoded
      << " -> " << (*decoded)->ToString();
}

TEST(StateCodecTest, EveryAdtRoundTripsInitialAndPopulatedStates) {
  struct Case {
    std::shared_ptr<const Adt> adt;
    std::unique_ptr<SpecState> populated;
  };
  std::vector<Case> cases;
  cases.push_back({MakeCounter(),
                   std::make_unique<TypedState<Int64State>>(Int64State{42})});
  cases.push_back(
      {MakeBankAccount(),
       std::make_unique<TypedState<Int64State>>(Int64State{1234})});
  cases.push_back({MakeBoundedCounter(),
                   std::make_unique<TypedState<Int64State>>(Int64State{3})});
  cases.push_back({MakeRegister(),
                   std::make_unique<TypedState<Int64State>>(Int64State{-7})});
  cases.push_back({MakeFifoQueue(), std::make_unique<TypedState<QueueState>>(
                                        QueueState{{5, -1, 5, 0}})});
  cases.push_back({MakeIntSet(), std::make_unique<TypedState<SetState>>(
                                     SetState{{-3, 0, 11}})});
  cases.push_back({MakeKvStore(),
                   std::make_unique<TypedState<KvState>>(KvState{
                       {{"plain", 1}, {"with space", -2}, {"pct%sign", 3}}})});
  cases.push_back({MakeSemiqueue(), std::make_unique<TypedState<BagState>>(
                                        BagState{{{2, 3}, {-9, 1}}})});
  for (const Case& c : cases) {
    ExpectRoundTrip(*c.adt, *c.adt->spec().InitialState());
    ExpectRoundTrip(*c.adt, *c.populated);
  }
}

TEST(StateCodecTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(MakeCounter()->DecodeState("nonsense").ok());
  EXPECT_FALSE(MakeFifoQueue()->DecodeState("1 2 x").ok());
  EXPECT_FALSE(MakeSemiqueue()->DecodeState("5").ok());      // odd tokens
  EXPECT_FALSE(MakeSemiqueue()->DecodeState("5 0").ok());    // zero count
  EXPECT_FALSE(MakeKvStore()->DecodeState("loneKey").ok());  // odd tokens
}

TEST(StateCodecTest, EscapeTokenRoundTrips) {
  for (const std::string& raw :
       {std::string(""), std::string("plain"), std::string("two words"),
        std::string("100%"), std::string("%"), std::string("a\tb\nc")}) {
    const std::string token = EscapeToken(raw);
    EXPECT_EQ(token.find(' '), std::string::npos) << raw;
    EXPECT_EQ(token.find('\n'), std::string::npos) << raw;
    EXPECT_FALSE(token.empty()) << "empty token is unparseable";
    StatusOr<std::string> back = UnescapeToken(token);
    ASSERT_TRUE(back.ok()) << raw;
    EXPECT_EQ(*back, raw);
  }
  EXPECT_FALSE(UnescapeToken("%2").ok());   // truncated escape
  EXPECT_FALSE(UnescapeToken("%zz").ok());  // bad hex
}

// ---------------------------------------------------------------------------
// Checkpoint publication
// ---------------------------------------------------------------------------

// A two-object UIP system used by most scenarios below.
void TwoObjectFactory(TxnManager* manager) {
  auto ba = MakeBankAccount();
  auto set = MakeIntSet();
  manager->AddObject("BA", ba, MakeNrbcConflict(ba),
                     std::make_unique<UipRecovery>(ba));
  manager->AddObject("SET", set, MakeNrbcConflict(set),
                     std::make_unique<UipRecovery>(set));
}

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

TEST(CheckpointerTest, StoreHoldsTheNewestCheckpointAcrossReopen) {
  TempDir dir;
  std::unique_ptr<LogStructuredStore> store = OpenStore(dir.path());
  // No meta key yet: the empty image (anchor 0, no objects) — "no
  // checkpoint, replay everything".
  StatusOr<CheckpointImage> none = LoadCheckpointFromStore(store.get());
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->anchor, 0u);
  EXPECT_TRUE(none->objects.empty());

  TxnManager manager;
  TwoObjectFactory(&manager);
  manager.set_object_store(store.get());
  MemoryJournal journal;
  for (AtomicObject* obj : manager.objects()) {
    obj->recovery().set_journal(&journal.journal);
  }
  auto ba = MakeBankAccount();
  ASSERT_TRUE(manager
                  .RunTransaction([&](Transaction* txn) {
                    return manager.Execute(txn, ba->DepositInv(20)).status();
                  })
                  .ok());
  Checkpointer checkpointer = StoreCheckpointer(dir.path(), store.get());
  const Lsn anchor1 = journal.journal.high_lsn();
  ASSERT_TRUE(checkpointer.Write(&manager, anchor1).ok());
  ASSERT_TRUE(manager
                  .RunTransaction([&](Transaction* txn) {
                    return manager.Execute(txn, ba->WithdrawInv(5)).status();
                  })
                  .ok());
  const Lsn anchor2 = journal.journal.high_lsn();
  EXPECT_NE(anchor1, anchor2);
  ASSERT_TRUE(checkpointer.Write(&manager, anchor2).ok());

  // The newest checkpoint wins, durably: a reopened store reads it back,
  // and its per-object state reflects both transactions.
  store.reset();
  store = OpenStore(dir.path());
  StatusOr<CheckpointImage> image = LoadCheckpointFromStore(store.get());
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->anchor, anchor2);
  EXPECT_EQ(image->max_txn, manager.max_assigned_txn());
  EXPECT_EQ(image->objects.size(), 2u);
  bool saw_ba = false;
  for (const auto& entry : image->objects) {
    if (entry.id != "BA") continue;
    saw_ba = true;
    StatusOr<std::unique_ptr<SpecState>> state = ba->DecodeState(entry.encoded);
    ASSERT_TRUE(state.ok());
    EXPECT_TRUE((*state)->Equals(*manager.object("BA")->CommittedState()));
  }
  EXPECT_TRUE(saw_ba);
}

// ---------------------------------------------------------------------------
// Segmented sink: rotation, truncation, scan continuity
// ---------------------------------------------------------------------------

Journal::CommitRecord DepositRecord(TxnId txn, int64_t amount) {
  auto ba = MakeBankAccount();
  return Journal::CommitRecord{txn, OpSeq{ba->Deposit(amount)}};
}

// Path of the highest-numbered segment file (names are zero-padded, so
// lexicographic max is numeric max).
std::string LastSegmentPath(const std::string& dir) {
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  CCR_CHECK(names.ok());
  std::string best;
  for (const std::string& name : *names) {
    if (name.rfind("journal.", 0) == 0 && (best.empty() || name > best)) {
      best = name;
    }
  }
  CCR_CHECK_MSG(!best.empty(), "no segment files in %s", dir.c_str());
  return dir + "/" + best;
}

// Simulates a torn write: the raw bytes land at the end of the file with
// no framing discipline, as a crash mid-write would leave them.
void AppendRawBytes(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  CCR_CHECK(f != nullptr);
  CCR_CHECK(std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size());
  CCR_CHECK(std::fclose(f) == 0);
}

TEST(SegmentedSinkTest, RotatesTruncatesAndScansContiguously) {
  TempDir dir;
  SegmentedSinkOptions options;
  options.max_segment_bytes = 96;  // a few records per segment
  StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
      SegmentedFileSink::Open(dir.path(), 1, options);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  constexpr size_t kRecords = 20;
  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(
        (*sink)
            ->Append(EncodeCommitRecord(
                DepositRecord(i + 1, static_cast<int64_t>(100 + i))))
            .ok());
  }
  ASSERT_TRUE((*sink)->Sync().ok());
  EXPECT_EQ((*sink)->next_lsn(), kRecords + 1);
  const size_t segments_full = (*sink)->segment_count();
  EXPECT_GT(segments_full, 3u);

  // Scan from scratch: every record, in LSN order.
  std::vector<Lsn> lsns;
  SegmentScanReport report;
  ASSERT_TRUE(ForEachSegmentedRecord(
                  dir.path(), 0,
                  [&](Lsn lsn, Journal::CommitRecord&& record) {
                    EXPECT_EQ(record.txn, lsn);  // txn i at lsn i by script
                    lsns.push_back(lsn);
                    return Status::OK();
                  },
                  &report)
                  .ok());
  ASSERT_EQ(lsns.size(), kRecords);
  for (size_t i = 0; i < kRecords; ++i) EXPECT_EQ(lsns[i], i + 1);
  EXPECT_EQ(report.records, kRecords);
  EXPECT_EQ(report.records_skipped, 0u);
  EXPECT_FALSE(report.corrupt_tail);

  // Truncate below an anchor: only wholly covered sealed segments go; the
  // records above the anchor all survive.
  const Lsn anchor = 9;
  ASSERT_TRUE((*sink)->TruncateBelow(anchor).ok());
  EXPECT_LT((*sink)->segment_count(), segments_full);
  lsns.clear();
  ASSERT_TRUE(ForEachSegmentedRecord(
                  dir.path(), anchor,
                  [&](Lsn lsn, Journal::CommitRecord&&) {
                    lsns.push_back(lsn);
                    return Status::OK();
                  },
                  &report)
                  .ok());
  ASSERT_FALSE(lsns.empty());
  for (size_t i = 0; i < lsns.size(); ++i) {
    EXPECT_EQ(lsns[i], anchor + 1 + i);
  }
  EXPECT_EQ(lsns.back(), kRecords);

  // Scanning for a tail the truncation already deleted must fail loudly:
  // the first surviving segment starts past after_lsn + 1.
  SegmentScanReport gap_report;
  const Status gap = ForEachSegmentedRecord(
      dir.path(), 0, [](Lsn, Journal::CommitRecord&&) { return Status::OK(); },
      &gap_report);
  EXPECT_EQ(gap.code(), StatusCode::kInternal);
}

TEST(SegmentedSinkTest, ReopenContinuesSequenceAndCleansArtifacts) {
  TempDir dir;
  SegmentedSinkOptions options;
  options.max_segment_bytes = 96;
  Lsn next_lsn = 1;
  {
    StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
        SegmentedFileSink::Open(dir.path(), next_lsn, options);
    ASSERT_TRUE(sink.ok());
    for (size_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          (*sink)->Append(EncodeCommitRecord(DepositRecord(i + 1, 7))).ok());
    }
    ASSERT_TRUE((*sink)->Sync().ok());
    next_lsn = (*sink)->next_lsn();
  }
  // A rotation-crash artifact: a headerless segment file past the last
  // real one. Reopen must unlink it and continue the sequence after it.
  const std::string artifact = dir.path() + "/" + SegmentFileName(999);
  {
    StatusOr<std::unique_ptr<FileSink>> f = FileSink::Open(artifact);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("garbage-that-is-not-a-frame").ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  {
    StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
        SegmentedFileSink::Open(dir.path(), next_lsn, options);
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE(
        (*sink)->Append(EncodeCommitRecord(DepositRecord(9, 7))).ok());
    ASSERT_TRUE((*sink)->Sync().ok());
  }
  StatusOr<std::vector<std::string>> names = ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    EXPECT_NE(dir.path() + "/" + name, artifact);
  }
  // The whole journal still scans clean across the reopen boundary.
  size_t records = 0;
  ASSERT_TRUE(ForEachSegmentedRecord(
                  dir.path(), 0,
                  [&](Lsn, Journal::CommitRecord&&) {
                    ++records;
                    return Status::OK();
                  },
                  nullptr)
                  .ok());
  EXPECT_EQ(records, 9u);
}

TEST(SegmentedSinkTest, ReopenTruncatesTornTailSoSecondScanSucceeds) {
  TempDir dir;
  SegmentedSinkOptions options;
  Lsn next_lsn = 1;
  {
    StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
        SegmentedFileSink::Open(dir.path(), next_lsn, options);
    ASSERT_TRUE(sink.ok());
    for (size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          (*sink)->Append(EncodeCommitRecord(DepositRecord(i + 1, 5))).ok());
    }
    ASSERT_TRUE((*sink)->Sync().ok());
    next_lsn = (*sink)->next_lsn();
  }
  // The crash: the 7th record's write is interrupted mid-frame.
  const std::string torn_path = LastSegmentPath(dir.path());
  const std::string frame = EncodeCommitRecord(DepositRecord(7, 5));
  AppendRawBytes(torn_path,
                 std::string_view(frame).substr(0, frame.size() / 2));
  struct ::stat torn_stat;
  ASSERT_EQ(::stat(torn_path.c_str(), &torn_stat), 0);

  // First restart tolerates the torn tail: it is in the final segment.
  SegmentScanReport report;
  size_t records = 0;
  ASSERT_TRUE(ForEachSegmentedRecord(
                  dir.path(), 0,
                  [&](Lsn, Journal::CommitRecord&&) {
                    ++records;
                    return Status::OK();
                  },
                  &report)
                  .ok());
  EXPECT_EQ(records, 6u);
  EXPECT_TRUE(report.corrupt_tail);

  // The resume protocol: reopen for writing. The reopen buries the torn
  // segment under a new active one, so the torn bytes must be physically
  // gone, not merely tolerated.
  {
    StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
        SegmentedFileSink::Open(dir.path(), next_lsn, options);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    struct ::stat clean_stat;
    ASSERT_EQ(::stat(torn_path.c_str(), &clean_stat), 0);
    EXPECT_EQ(static_cast<size_t>(clean_stat.st_size),
              static_cast<size_t>(torn_stat.st_size) - frame.size() / 2);
    ASSERT_TRUE(
        (*sink)->Append(EncodeCommitRecord(DepositRecord(7, 5))).ok());
    ASSERT_TRUE((*sink)->Sync().ok());
  }

  // Second restart: the once-torn segment is no longer final. Before the
  // reopen truncated it physically, this scan hit the damaged frame in a
  // non-final segment and the directory was unrecoverable forever.
  records = 0;
  ASSERT_TRUE(ForEachSegmentedRecord(
                  dir.path(), 0,
                  [&](Lsn lsn, Journal::CommitRecord&&) {
                    ++records;
                    EXPECT_EQ(lsn, records);
                    return Status::OK();
                  },
                  &report)
                  .ok());
  EXPECT_EQ(records, 7u);
  EXPECT_FALSE(report.corrupt_tail);
}

TEST(SegmentedSinkTest, ReopenDoesNotUnlinkSegmentItCannotRead) {
  TempDir dir;
  {
    StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
        SegmentedFileSink::Open(dir.path(), 1, SegmentedSinkOptions{});
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE(
        (*sink)->Append(EncodeCommitRecord(DepositRecord(1, 5))).ok());
    ASSERT_TRUE((*sink)->Sync().ok());
  }
  // A trailing segment-named entry whose image cannot be read (a
  // directory: reading it fails with EISDIR). A failed read proves
  // nothing about the contents, so reopen must fail loudly instead of
  // unlinking what could be a sealed segment full of durable records.
  const std::string unreadable = dir.path() + "/" + SegmentFileName(999);
  ASSERT_EQ(::mkdir(unreadable.c_str(), 0700), 0);
  StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
      SegmentedFileSink::Open(dir.path(), 2, SegmentedSinkOptions{});
  EXPECT_FALSE(sink.ok());
  struct ::stat st;
  EXPECT_EQ(::stat(unreadable.c_str(), &st), 0);
  ASSERT_EQ(::rmdir(unreadable.c_str()), 0);
}

// ---------------------------------------------------------------------------
// Checkpoint-aware restart
// ---------------------------------------------------------------------------

struct LifecycleWorld {
  TempDir dir;
  std::unique_ptr<LogStructuredStore> store = OpenStore(dir.path());
  TxnManager manager;
  Journal journal;
  std::unique_ptr<SegmentedFileSink> sink;
  std::unique_ptr<JournalWriter> writer;
  std::unique_ptr<GroupCommitPipeline> pipeline;

  explicit LifecycleWorld(uint64_t max_segment_bytes = 160) {
    TwoObjectFactory(&manager);
    manager.set_object_store(store.get());
    SegmentedSinkOptions options;
    options.max_segment_bytes = max_segment_bytes;
    StatusOr<std::unique_ptr<SegmentedFileSink>> opened =
        SegmentedFileSink::Open(dir.path(), 1, options);
    CCR_CHECK(opened.ok());
    sink = std::move(*opened);
    writer = std::make_unique<JournalWriter>(sink.get());
    pipeline = std::make_unique<GroupCommitPipeline>(
        writer.get(), GroupCommitOptions{.mode = DurabilityMode::kSync});
    journal.set_pipeline(pipeline.get());
    for (AtomicObject* obj : manager.objects()) {
      obj->recovery().set_journal(&journal);
    }
  }

  Status Deposit(int64_t amount) {
    auto ba = MakeBankAccount();
    return manager.RunTransaction([&](Transaction* txn) {
      return manager.Execute(txn, ba->DepositInv(amount)).status();
    });
  }
  Status Insert(int64_t elem) {
    auto set = MakeIntSet();
    return manager.RunTransaction([&](Transaction* txn) {
      return manager.Execute(txn, set->InsertInv(elem)).status();
    });
  }
};

TEST(RestartFromDirTest, CheckpointPlusTailSerialAndParallel) {
  LifecycleWorld world;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(world.Deposit(5).ok());
    ASSERT_TRUE(world.Insert(i).ok());
  }
  // Checkpoint, truncate, then keep committing: the post-crash journal is
  // checkpoint + tail only.
  Checkpointer checkpointer =
      StoreCheckpointer(world.dir.path(), world.store.get());
  const Lsn anchor = world.journal.high_lsn();
  StatusOr<Lsn> written = checkpointer.Write(&world.manager, anchor);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ASSERT_TRUE(world.sink->TruncateBelow(anchor).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(world.Deposit(3).ok());
    ASSERT_TRUE(world.Insert(100 + i).ok());
  }
  const Lsn high = world.journal.high_lsn();
  const TxnId max_txn = world.manager.max_assigned_txn();

  for (const int threads : {1, 4}) {
    TxnManager restarted;
    TwoObjectFactory(&restarted);
    restarted.set_object_store(world.store.get());
    StatusOr<RestartSummary> summary =
        restarted.RestartFromDir(world.dir.path(), RestartOptions{threads});
    ASSERT_TRUE(summary.ok())
        << threads << " threads: " << summary.status().ToString();
    EXPECT_EQ(summary->checkpoint_anchor, anchor);
    EXPECT_EQ(summary->checkpoint_objects, 2u);
    EXPECT_EQ(summary->high_lsn, high);
    EXPECT_EQ(summary->max_txn, max_txn);
    EXPECT_EQ(summary->tail_records, static_cast<size_t>(high - anchor));
    for (AtomicObject* obj : restarted.objects()) {
      EXPECT_TRUE(obj->CommittedState()->Equals(
          *world.manager.object(obj->id())->CommittedState()))
          << "object " << obj->id() << " with " << threads << " threads";
    }
    // The watermark survived: the next transaction gets a fresh id.
    EXPECT_EQ(restarted.max_assigned_txn(), max_txn);
  }
}

TEST(RestartFromDirTest, LsnSpaceContinuesAcrossRestart) {
  Lsn high = 0;
  TxnId max_txn = 0;
  TempDir* dir_ptr = nullptr;
  LifecycleWorld world;
  dir_ptr = &world.dir;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(world.Deposit(2).ok());
  Checkpointer checkpointer =
      StoreCheckpointer(world.dir.path(), world.store.get());
  ASSERT_TRUE(
      checkpointer.Write(&world.manager, world.journal.high_lsn()).ok());
  ASSERT_TRUE(world.sink->TruncateBelow(world.journal.high_lsn()).ok());
  ASSERT_TRUE(world.Deposit(10).ok());
  high = world.journal.high_lsn();
  max_txn = world.manager.max_assigned_txn();

  // Generation 2: restart, resume journaling after high, commit more.
  TxnManager gen2;
  TwoObjectFactory(&gen2);
  gen2.set_object_store(world.store.get());
  StatusOr<RestartSummary> summary = gen2.RestartFromDir(dir_ptr->path());
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(summary->high_lsn, high);
  SegmentedSinkOptions options;
  StatusOr<std::unique_ptr<SegmentedFileSink>> sink2 =
      SegmentedFileSink::Open(dir_ptr->path(), summary->high_lsn + 1, options);
  ASSERT_TRUE(sink2.ok());
  JournalWriter writer2(sink2->get());
  GroupCommitPipeline pipeline2(
      &writer2, {.mode = DurabilityMode::kSync,
                 .first_lsn = summary->high_lsn + 1});
  Journal journal2;
  journal2.set_base_lsn(summary->high_lsn);
  journal2.set_pipeline(&pipeline2);
  for (AtomicObject* obj : gen2.objects()) {
    obj->recovery().set_journal(&journal2);
  }
  auto ba = MakeBankAccount();
  ASSERT_TRUE(gen2.RunTransaction([&](Transaction* txn) {
                    return gen2.Execute(txn, ba->DepositInv(100)).status();
                  })
                  .ok());
  EXPECT_EQ(journal2.high_lsn(), high + 1);

  // Generation 3 sees one seamless LSN space: checkpoint + old tail + new
  // records, states carried exactly.
  TxnManager gen3;
  TwoObjectFactory(&gen3);
  gen3.set_object_store(world.store.get());
  StatusOr<RestartSummary> summary3 = gen3.RestartFromDir(dir_ptr->path());
  ASSERT_TRUE(summary3.ok()) << summary3.status().ToString();
  EXPECT_EQ(summary3->high_lsn, high + 1);
  EXPECT_GT(summary3->max_txn, max_txn);
  EXPECT_TRUE(gen3.object("BA")->CommittedState()->Equals(
      *gen2.object("BA")->CommittedState()));
}

TEST(RestartFromDirTest, TornTailToleratedAcrossTwoRestarts) {
  LifecycleWorld world;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(world.Deposit(2).ok());
  Checkpointer checkpointer =
      StoreCheckpointer(world.dir.path(), world.store.get());
  ASSERT_TRUE(
      checkpointer.Write(&world.manager, world.journal.high_lsn()).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(world.Deposit(10).ok());
  const Lsn high = world.journal.high_lsn();
  // The crash: drop the writer stack, then leave a half-written record on
  // the active segment's tail.
  world.journal.set_pipeline(nullptr);
  world.pipeline.reset();
  world.writer.reset();
  world.sink.reset();
  const std::string frame = EncodeCommitRecord(DepositRecord(99, 1));
  AppendRawBytes(LastSegmentPath(world.dir.path()),
                 std::string_view(frame).substr(0, frame.size() - 3));

  // Restart 1 tolerates the torn tail, then resumes the documented
  // protocol: a fresh active segment at high_lsn + 1, more commits.
  TxnManager gen2;
  TwoObjectFactory(&gen2);
  gen2.set_object_store(world.store.get());
  StatusOr<RestartSummary> summary = gen2.RestartFromDir(world.dir.path());
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  ASSERT_EQ(summary->high_lsn, high);
  EXPECT_TRUE(summary->scan.corrupt_tail);
  SegmentedSinkOptions options;
  StatusOr<std::unique_ptr<SegmentedFileSink>> sink2 =
      SegmentedFileSink::Open(world.dir.path(), high + 1, options);
  ASSERT_TRUE(sink2.ok()) << sink2.status().ToString();
  JournalWriter writer2(sink2->get());
  GroupCommitPipeline pipeline2(
      &writer2, {.mode = DurabilityMode::kSync, .first_lsn = high + 1});
  Journal journal2;
  journal2.set_base_lsn(high);
  journal2.set_pipeline(&pipeline2);
  for (AtomicObject* obj : gen2.objects()) {
    obj->recovery().set_journal(&journal2);
  }
  auto ba = MakeBankAccount();
  ASSERT_TRUE(gen2.RunTransaction([&](Transaction* txn) {
                    return gen2.Execute(txn, ba->DepositInv(100)).status();
                  })
                  .ok());
  for (AtomicObject* obj : gen2.objects()) {
    obj->recovery().set_journal(nullptr);
  }
  sink2->reset();

  // Restart 2: the torn bytes sat in what is now a non-final segment —
  // recovery succeeds only because the gen-2 reopen physically removed
  // them (this restart returned kInternal before the fix).
  TxnManager gen3;
  TwoObjectFactory(&gen3);
  gen3.set_object_store(world.store.get());
  StatusOr<RestartSummary> summary3 = gen3.RestartFromDir(world.dir.path());
  ASSERT_TRUE(summary3.ok()) << summary3.status().ToString();
  EXPECT_EQ(summary3->high_lsn, high + 1);
  EXPECT_FALSE(summary3->scan.corrupt_tail);
  EXPECT_TRUE(gen3.object("BA")->CommittedState()->Equals(
      *gen2.object("BA")->CommittedState()));
}

TEST(RestartTest, ReplayLsnsLiveInTheJournalsBaseSpace) {
  // A journal continuing a prior generation that ended at LSN 5 with a
  // checkpoint: its records carry LSNs 6, 7.
  TempDir dir;
  std::unique_ptr<LogStructuredStore> store = OpenStore(dir.path());
  {
    TxnManager prior;
    TwoObjectFactory(&prior);
    prior.set_object_store(store.get());
    ASSERT_TRUE(StoreCheckpointer(dir.path(), store.get())
                    .Write(&prior, 5)
                    .ok());
  }
  StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
      SegmentedFileSink::Open(dir.path(), 6, SegmentedSinkOptions{});
  ASSERT_TRUE(sink.ok());
  JournalWriter writer(sink->get());
  GroupCommitPipeline pipeline(
      &writer, {.mode = DurabilityMode::kSync, .first_lsn = 6});
  Journal journal;
  journal.set_base_lsn(5);
  journal.set_pipeline(&pipeline);
  auto ba = MakeBankAccount();
  journal.AppendCommit(1, OpSeq{ba->Deposit(10)});
  journal.AppendCommit(2, OpSeq{ba->Deposit(20)});

  for (const int threads : {1, 3}) {
    TxnManager manager;
    TwoObjectFactory(&manager);
    manager.set_object_store(store.get());
    StatusOr<RestartSummary> summary =
        manager.RestartFromDir(dir.path(), RestartOptions{threads});
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    // Per-object last-committed LSNs must land in the journal's own
    // numbering space (base+1, base+2), not a private count-from-1 space:
    // a checkpoint written after this restart pairs them with
    // journal.high_lsn(), and a mismatch would mis-skip tail records.
    EXPECT_EQ(journal.high_lsn(), 7u);
    EXPECT_EQ(summary->high_lsn, journal.high_lsn());
    EXPECT_EQ(manager.object("BA")->last_committed_lsn(), journal.high_lsn())
        << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Fail-atomic restart (regression)
// ---------------------------------------------------------------------------

// A record naming an object the restarted system does not have.
Journal::CommitRecord AlienRecord(TxnId txn) {
  return Journal::CommitRecord{
      txn, OpSeq{Operation(Invocation("GHOST", BankAccount::kDeposit,
                                      "deposit", {Value(int64_t{1})}),
                           Value("ok"))}};
}

// A journal image whose middle record names an object the restarted system
// does not have: replay errors out after the first record already applied.
// Fail-atomicity requires every object to come back empty — the error path
// must not leak a half-replayed state that looks recovered.
TEST(FailAtomicRestartTest, ErrorPathLeavesObjectsEmpty) {
  auto ba = MakeBankAccount();
  const Journal::CommitRecord good1 = DepositRecord(1, 50);
  const Journal::CommitRecord good2 = DepositRecord(3, 7);
  std::string image = EncodeCommitRecord(good1);
  image += EncodeCommitRecord(AlienRecord(2));
  image += EncodeCommitRecord(good2);

  TxnManager manager;
  AtomicObject* obj =
      manager.AddObject("BA", ba, MakeNrbcConflict(ba),
                        std::make_unique<UipRecovery>(ba));
  RecoveryReport report;
  const Status s = manager.RestartFromImage(image, &report);
  ASSERT_EQ(s.code(), StatusCode::kInternal);
  // The deposit of record 1 was applied before the error — it must be gone.
  EXPECT_TRUE(
      obj->CommittedState()->Equals(*ba->spec().InitialState()))
      << "half-replayed state leaked: " << obj->CommittedState()->ToString();
  EXPECT_EQ(obj->last_committed_lsn(), kNoLsn);

  // The manager is reusable: a clean image restarts fine afterwards.
  std::string clean = EncodeCommitRecord(good1);
  clean += EncodeCommitRecord(good2);
  ASSERT_TRUE(manager.RestartFromImage(clean, &report).ok());
  EXPECT_EQ(TypedSpecAutomaton<Int64State>::Unwrap(*obj->CommittedState()).v,
            57);
}

// The directory path is fail-atomic too, whether it streams the records
// (one thread: the deposit is applied before the alien record fails the
// restart) or buckets them for the fan-out.
TEST(FailAtomicRestartTest, DirRestartAlsoResets) {
  auto ba = MakeBankAccount();
  TempDir dir;
  {
    StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
        SegmentedFileSink::Open(dir.path(), 1, SegmentedSinkOptions{});
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE((*sink)->Append(EncodeCommitRecord(DepositRecord(1, 50))).ok());
    ASSERT_TRUE((*sink)->Append(EncodeCommitRecord(AlienRecord(2))).ok());
    ASSERT_TRUE((*sink)->Sync().ok());
  }
  for (const int threads : {1, 3}) {
    TxnManager manager;
    AtomicObject* obj =
        manager.AddObject("BA", ba, MakeNrbcConflict(ba),
                          std::make_unique<UipRecovery>(ba));
    EXPECT_EQ(manager.RestartFromDir(dir.path(), RestartOptions{threads})
                  .status()
                  .code(),
              StatusCode::kInternal);
    EXPECT_TRUE(obj->CommittedState()->Equals(*ba->spec().InitialState()))
        << threads << " threads";
    EXPECT_EQ(obj->last_committed_lsn(), kNoLsn);
  }
}

// ---------------------------------------------------------------------------
// Crash points across checkpoint write, rotation, truncation
// ---------------------------------------------------------------------------

TxnBody MixedBody() {
  const auto ba = MakeBankAccount();
  const auto set = MakeIntSet();
  return [ba, set](TxnManager* manager, Transaction* txn,
                   Random* rng) -> Status {
    const int ops = 1 + static_cast<int>(rng->UniformRange(1, 3));
    for (int i = 0; i < ops; ++i) {
      const StatusOr<Value> r = [&]() -> StatusOr<Value> {
        switch (rng->UniformRange(0, 3)) {
          case 0:
            return manager->Execute(txn,
                                    ba->DepositInv(rng->UniformRange(1, 9)));
          case 1:
            return manager->Execute(txn,
                                    ba->WithdrawInv(rng->UniformRange(1, 4)));
          case 2:
            return manager->Execute(txn,
                                    set->InsertInv(rng->UniformRange(1, 8)));
          default:
            return manager->Execute(txn,
                                    set->RemoveInv(rng->UniformRange(1, 8)));
        }
      }();
      if (!r.ok()) return r.status();
    }
    return Status::OK();
  };
}

// The checkpoint-only run (no eviction) crashed at every step of checkpoint
// publication: the store batch carrying the meta key, its sync, and the
// rotation and compaction that follow it. StoreCrashTest's sweep covers the
// journal's rotation and truncation points too.
TEST(CheckpointCrashTest, RecoveryConsistentAtEveryMaintenanceCrashPoint) {
  const std::vector<std::string> points = {
      "",  // clean run: checkpoints, truncations, and compactions all land
      "store.before_batch", "store.torn_batch", "store.after_batch",
      "store.before_sync", "store.compact.before_rewrite"};
  for (const std::string& point : points) {
    StoreCrashOptions options;
    options.driver.threads = 2;
    options.driver.txns_per_thread = 30;
    options.driver.seed = 7;
    options.max_segment_bytes = 256;
    options.store_segment_bytes = 256;
    options.checkpoint_every = 15;
    options.evict_every = 0;
    options.crash_point = point;
    options.replay_threads = 2;
    const StoreCrashResult result =
        RunStoreCrashScenario(TwoObjectFactory, MixedBody(), options);
    EXPECT_TRUE(result.ok())
        << "point '" << point << "': status " << result.status.ToString()
        << ", appended " << result.records_appended << "/"
        << result.records_total << ", acked " << result.acked_records
        << ", recovered_all_appended " << result.recovered_all_appended
        << ", state_matches_prefix " << result.state_matches_prefix
        << ", high_lsn " << result.summary.high_lsn;
    EXPECT_EQ(result.evictions, 0u);
    if (point.empty()) {
      EXPECT_FALSE(result.crash_fired);
      EXPECT_EQ(result.records_appended, result.records_total);
      EXPECT_GE(result.checkpoints_written, 1u);
      EXPECT_GE(result.truncations, 1u);
      EXPECT_GT(result.summary.checkpoint_anchor, 0u);
    } else {
      EXPECT_TRUE(result.crash_fired)
          << "point '" << point << "' was never reached — the scenario "
          << "does not exercise it";
    }
  }
}

// ---------------------------------------------------------------------------
// Fuzzy checkpoint under live concurrent load
// ---------------------------------------------------------------------------

TEST(FuzzyCheckpointTest, CheckpointsTakenUnderLoadRestartExactly) {
  TempDir dir;
  std::unique_ptr<LogStructuredStore> store = OpenStore(dir.path());
  TxnManager manager;
  TwoObjectFactory(&manager);
  manager.set_object_store(store.get());
  SegmentedSinkOptions options;
  options.max_segment_bytes = 512;
  StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
      SegmentedFileSink::Open(dir.path(), 1, options);
  ASSERT_TRUE(sink.ok());
  JournalWriter writer(sink->get());
  GroupCommitPipeline pipeline(&writer, {.mode = DurabilityMode::kSync});
  Journal journal;
  journal.set_pipeline(&pipeline);
  for (AtomicObject* obj : manager.objects()) {
    obj->recovery().set_journal(&journal);
  }

  // Maintenance races the workload: anchor captured from the journal
  // BEFORE the object walk each pass — the ordering the fuzzy-checkpoint
  // soundness argument hinges on.
  std::atomic<bool> done{false};
  std::atomic<int> passes{0};
  Checkpointer checkpointer = StoreCheckpointer(dir.path(), store.get());
  std::thread maintenance([&] {
    while (!done.load(std::memory_order_acquire)) {
      const Lsn anchor = journal.high_lsn();
      if (anchor > 0) {
        const StatusOr<Lsn> written = checkpointer.Write(&manager, anchor);
        if (written.ok()) {
          CCR_CHECK((*sink)->TruncateBelow(*written).ok());
          passes.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  DriverOptions driver;
  driver.threads = 3;
  driver.txns_per_thread = 40;
  driver.seed = 13;
  RunWorkload(&manager, MixedBody(), driver);
  done.store(true, std::memory_order_release);
  maintenance.join();
  ASSERT_GT(passes.load(), 0);

  TxnManager restarted;
  TwoObjectFactory(&restarted);
  restarted.set_object_store(store.get());
  StatusOr<RestartSummary> summary =
      restarted.RestartFromDir(dir.path(), RestartOptions{4});
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->high_lsn, journal.high_lsn());
  for (AtomicObject* obj : restarted.objects()) {
    EXPECT_TRUE(obj->CommittedState()->Equals(
        *manager.object(obj->id())->CommittedState()))
        << "object " << obj->id();
  }
}

// ---------------------------------------------------------------------------
// State-codec fuzz (the empty-token / control-byte escaping regression)
// ---------------------------------------------------------------------------

// Regression for the escaping bug: NeedsEscape treated only space, '%',
// newline, and tab as unsafe, so payloads like "\r", "\v", "\f", NUL, or
// DEL flowed raw into the space-separated token stream and broke (or
// silently changed) round trips. Fuzz EscapeToken/UnescapeToken over the
// full byte range, plus the named degenerate payloads.
TEST(StateCodecTest, EscapeTokenFuzzOverFullByteRange) {
  const std::vector<std::string> named = {
      std::string(),           // empty token — must encode non-empty
      " ",    "  ",    "\t",   "\n",   "\r",   "\v",   "\f",
      " \t\n\r\v\f ",          // all-whitespace
      std::string(1, '\0'),    // NUL
      std::string("a\0b", 3),  // embedded NUL
      "\x7f", "%",     "%%",   "%20",  "100% done",
  };
  for (const std::string& raw : named) {
    const std::string token = EscapeToken(raw);
    ASSERT_FALSE(token.empty());
    for (const char c : token) {
      EXPECT_TRUE(static_cast<unsigned char>(c) > 0x20 && c != 0x7f)
          << "raw bytes leaked into token";
    }
    StatusOr<std::string> back = UnescapeToken(token);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, raw);
  }
  Random rng(41);
  for (int i = 0; i < 500; ++i) {
    std::string raw;
    const size_t len = rng.Uniform(13);
    for (size_t j = 0; j < len; ++j) {
      raw.push_back(static_cast<char>(rng.Uniform(256)));
    }
    const std::string token = EscapeToken(raw);
    ASSERT_FALSE(token.empty()) << i;
    EXPECT_EQ(token.find(' '), std::string::npos) << i;
    EXPECT_EQ(token.find('\n'), std::string::npos) << i;
    EXPECT_EQ(token.find('\t'), std::string::npos) << i;
    StatusOr<std::string> back = UnescapeToken(token);
    ASSERT_TRUE(back.ok()) << i;
    EXPECT_EQ(*back, raw) << i;
  }
}

TEST(StateCodecTest, EveryRegisteredAdtRoundTripsItsInitialState) {
  const std::vector<std::shared_ptr<Adt>> adts = AllAdts();
  EXPECT_EQ(adts.size(), 8u);
  for (const std::shared_ptr<Adt>& adt : adts) {
    ASSERT_TRUE(adt->supports_state_codec()) << adt->name();
    ExpectRoundTrip(*adt, *adt->spec().InitialState());
  }
}

// Degenerate KV payloads through every codec layer that carries them:
// the ADT state codec and the store value codec.
TEST(StateCodecTest, DegenerateKvPayloadsRoundTripThroughEveryLayer) {
  const auto kv = MakeKvStore();
  KvState state;
  state.entries[""] = 1;                      // empty-string key
  state.entries[" "] = 2;                     // single space
  state.entries[" \t\n\r\v\f"] = 3;           // all-whitespace
  state.entries[std::string("n\0l", 3)] = 4;  // embedded NUL
  state.entries["%"] = 5;
  state.entries["\x7f"] = 6;
  const TypedState<KvState> typed(state);
  ExpectRoundTrip(*kv, typed);

  const std::string encoded = kv->EncodeState(typed);
  StatusOr<CheckpointImage::ObjectEntry> store_trip =
      DecodeStoreObjectValue(EncodeStoreObjectValue(9, "kv-factory", encoded));
  ASSERT_TRUE(store_trip.ok()) << store_trip.status().ToString();
  EXPECT_EQ(store_trip->lsn, 9u);
  EXPECT_EQ(store_trip->factory, "kv-factory");
  EXPECT_EQ(store_trip->encoded, encoded);
  StatusOr<std::unique_ptr<SpecState>> decoded =
      kv->DecodeState(store_trip->encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE((*decoded)->Equals(typed));
}

}  // namespace
}  // namespace ccr
