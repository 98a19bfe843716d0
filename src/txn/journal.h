// Copyright 2026 The ccr Authors.
//
// Crash recovery — the extension the paper explicitly defers ("we focus on
// recovery from transaction aborts, and ignore crash recovery... we expect
// a similar analysis to apply"). We implement the natural REDO-journal
// design both recovery methods share:
//
//   * at commit, the transaction's operations are appended to a durable
//     journal as one atomic commit record (for DU this is literally the
//     intentions list; for UIP it is the transaction's slice of the
//     operation log, in response order);
//   * a crash loses all volatile state (current state, operation log,
//     workspaces, locks, active transactions);
//   * recovery replays the journal's commit records in order, rebuilding
//     the committed state.
//
// Replaying commit records in commit order is legal and equieffective to
// the pre-crash committed state precisely because the engine's histories
// are dynamic atomic and the commit order is consistent with precedes —
// i.e., the abort-recovery theory is what makes this crash recovery
// correct, which is the interaction the paper is about.
//
// The in-memory record vector is the volatile view (it dies with the
// process in a simulated crash); attaching a GroupCommitPipeline makes the
// journal durable: every record is sequenced through it onto a JournalWriter
// in the checksummed frame format of journal_format.h, and crash recovery
// scans that image back (TxnManager::RestartFromImage for one image,
// TxnManager::RestartFromDir for a segmented directory).

#ifndef CCR_TXN_JOURNAL_H_
#define CCR_TXN_JOURNAL_H_

#include <functional>
#include <mutex>
#include <vector>

#include "core/adt.h"
#include "core/event.h"

namespace ccr {

class GroupCommitPipeline;

// Log sequence number: the 1-based position of a commit record in the
// shared journal. LSNs are assigned under the journal mutex, so LSN order
// is exactly the journal's record order (and hence commit order). kNoLsn
// means "nothing was journaled" — no journal attached, or a read-free
// transaction.
using Lsn = uint64_t;
inline constexpr Lsn kNoLsn = 0;

// Object lifecycle event in the journal: dynamically created objects record
// a `create` (with the registered factory that can rebuild them on restart)
// and dropped objects record a `drop`. Lifecycle records occupy LSN slots
// exactly like commit records — the journal is one totally ordered log, so
// replay sees creates/drops interleaved with commits in the order they
// happened.
struct LifecycleRecord {
  enum class Kind { kCreate, kDrop };
  Kind kind = Kind::kCreate;
  ObjectId object;
  // Registered factory name (create only; empty for drop). Restart looks
  // this up in the restarted manager's factory registry to re-instantiate
  // the object before replaying its tail.
  std::string factory;
};

class Journal {
 public:
  struct CommitRecord {
    TxnId txn;
    OpSeq ops;
  };

  // One LSN slot: either a commit record or a lifecycle record.
  struct Entry {
    bool is_lifecycle = false;
    CommitRecord commit;        // valid when !is_lifecycle
    LifecycleRecord lifecycle;  // valid when is_lifecycle

    static Entry Commit(TxnId txn, OpSeq ops) {
      Entry e;
      e.commit = CommitRecord{txn, std::move(ops)};
      return e;
    }
    static Entry Lifecycle(LifecycleRecord record) {
      Entry e;
      e.is_lifecycle = true;
      e.lifecycle = std::move(record);
      return e;
    }
  };

  Journal() = default;

  // A journal holding the given commit records (used by tests that
  // construct crash images directly).
  explicit Journal(std::vector<CommitRecord> records) {
    entries_.reserve(records.size());
    for (CommitRecord& r : records) entries_.push_back(Entry::Commit(r.txn, std::move(r.ops)));
  }

  // A journal holding the given entries (used by Prefix and ScanJournalImage).
  explicit Journal(std::vector<Entry> entries) : entries_(std::move(entries)) {}

  // Movable so StatusOr<Journal> works (ScanJournalImage). The mutex is
  // not moved — the source must be quiescent, which recovery-time use is.
  Journal(Journal&& other) noexcept
      : entries_(std::move(other.entries_)),
        base_lsn_(other.base_lsn_),
        pipeline_(other.pipeline_) {}
  Journal& operator=(Journal&& other) noexcept {
    entries_ = std::move(other.entries_);
    base_lsn_ = other.base_lsn_;
    pipeline_ = other.pipeline_;
    return *this;
  }

  // Durable mode: every AppendCommit/AppendLifecycle is *sequenced* through
  // `pipeline` under the journal mutex (so the pipeline sees records in
  // commit order). The pipeline's mode decides where the sync happens:
  // kSync frames, appends and fdatasyncs each record inline, before the
  // append returns; kGroup/kRelaxed enqueue it for the background flusher,
  // so the caller's critical section never pays for a sync. Set before
  // first use; nullptr returns the journal to volatile-only.
  void set_pipeline(GroupCommitPipeline* pipeline) { pipeline_ = pipeline; }

  // Post-restart continuation: the LSN space continues where the durable
  // journal left off, so a recovered system's new records never collide
  // with checkpointed per-object LSNs. The next AppendCommit returns
  // base + 1. Must be called before any append (records must be empty);
  // the attached pipeline's first_lsn must be set to base + 1 to match.
  void set_base_lsn(Lsn base);

  // Highest LSN assigned so far (base + in-memory record count) — the
  // anchor a fuzzy checkpoint captures before walking objects.
  Lsn high_lsn() const;

  // The LSN the record space starts after: the first record carries
  // base_lsn() + 1. Zero unless set_base_lsn was called.
  Lsn base_lsn() const;

  // Appends one atomic commit record and returns its LSN (kNoLsn when the
  // journal is volatile-only — no pipeline attached; the in-memory record
  // is still kept). The record is durable only once the pipeline's
  // watermark reaches the returned LSN; the transaction's ack must wait for
  // it (TxnManager::Commit does).
  Lsn AppendCommit(TxnId txn, OpSeq ops);

  // Appends one object-lifecycle record (create/drop). Same durability
  // semantics as AppendCommit: the returned LSN is durable only once the
  // pipeline watermark covers it.
  Lsn AppendLifecycle(LifecycleRecord record);

  // All commit records, in commit order, lifecycle records elided.
  // Deep-copies; prefer ForEachRecord on hot or O(n²)-prone paths
  // (crash-at-every-prefix audits).
  std::vector<CommitRecord> Records() const;

  // All entries (commit + lifecycle) in LSN order. Deep-copies.
  std::vector<Entry> Entries() const;

  // Visits every commit record in commit order without copying, skipping
  // lifecycle records. The journal mutex is held for the whole visitation:
  // `fn` must not reenter this journal or block on anything that appends
  // to it.
  void ForEachRecord(const std::function<void(const CommitRecord&)>& fn) const;

  // Visits every entry (commit + lifecycle) with its LSN, in LSN order,
  // without copying. Same reentrancy caveat as ForEachRecord.
  void ForEachEntry(const std::function<void(Lsn, const Entry&)>& fn) const;

  // Entry count (commit + lifecycle records).
  size_t size() const;

  // The journal as it would be found after a crash that happened when only
  // the first `n` entries had reached the disk.
  Journal Prefix(size_t n) const;

 private:
  // Shared append path; assigns the LSN and sequences through the
  // pipeline, if any.
  Lsn AppendEntry(Entry entry);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  Lsn base_lsn_ = 0;
  GroupCommitPipeline* pipeline_ = nullptr;
};

// Crash recovery: rebuilds the committed state of an object by replaying
// the journal's commit records in order from the ADT's initial state.
// Fatal (CCR_CHECK) if a record fails to replay — that would mean the
// journal was written under a conflict relation too weak for its recovery
// method.
std::unique_ptr<SpecState> RecoverState(const Adt& adt,
                                        const Journal& journal);

}  // namespace ccr

#endif  // CCR_TXN_JOURNAL_H_
