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
// The Journal itself is only the LSN sequencer: it keeps no records. A
// GroupCommitPipeline attached to it makes it durable — every record is
// sequenced through the pipeline onto a JournalWriter in the checksummed
// frame format of journal_format.h, and crash recovery scans that image
// back (TxnManager::RestartFromImage for one image,
// TxnManager::RestartFromDir for a segmented directory). A scanned image
// is a DecodedJournal: a plain value, separate from the live sequencer.

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

  // Durable mode: every AppendCommit/AppendLifecycle is *sequenced* through
  // `pipeline` under the journal mutex (so the pipeline sees records in
  // commit order). The pipeline's mode decides where the sync happens:
  // kSync frames, appends and fdatasyncs each record inline, before the
  // append returns; kGroup/kRelaxed enqueue it for the background flusher,
  // so the caller's critical section never pays for a sync. Set before
  // first use; with no pipeline attached, appends sequence nothing.
  void set_pipeline(GroupCommitPipeline* pipeline) { pipeline_ = pipeline; }

  // Post-restart continuation: the LSN space continues where the durable
  // journal left off, so a recovered system's new records never collide
  // with checkpointed per-object LSNs. The next AppendCommit returns
  // base + 1. Must be called before any append; the attached pipeline's
  // first_lsn must be set to base + 1 to match.
  void set_base_lsn(Lsn base);

  // Highest LSN assigned so far (base + sequenced entry count) — the
  // anchor a fuzzy checkpoint captures before walking objects.
  Lsn high_lsn() const;

  // Appends one atomic commit record and returns its LSN (kNoLsn, and
  // nothing kept, when no pipeline is attached). The record is durable
  // only once the pipeline's watermark reaches the returned LSN; the
  // transaction's ack must wait for it (TxnManager::Commit does).
  Lsn AppendCommit(TxnId txn, OpSeq ops);

  // Appends one object-lifecycle record (create/drop). Same durability
  // semantics as AppendCommit: the returned LSN is durable only once the
  // pipeline watermark covers it.
  Lsn AppendLifecycle(LifecycleRecord record);

 private:
  // Shared append path; assigns the LSN and sequences through the
  // pipeline, if any.
  Lsn AppendEntry(Entry entry);

  mutable std::mutex mu_;
  Lsn base_lsn_ = 0;
  uint64_t sequenced_ = 0;  // entries handed to the pipeline
  GroupCommitPipeline* pipeline_ = nullptr;
};

// A journal image decoded into memory (ScanJournalImage): its entries in
// LSN order. A value — it is what a run left on its disk, read back, and
// nothing appends to it.
struct DecodedJournal {
  std::vector<Journal::Entry> entries;

  // Visits every commit record in commit order, skipping lifecycle
  // records.
  void ForEachRecord(
      const std::function<void(const Journal::CommitRecord&)>& fn) const;
};

// Crash recovery, spec level: rebuilds the committed state of an object by
// replaying `ops` (or every commit record of `image`) in order from the
// ADT's initial state. Fatal (CCR_CHECK) if an operation fails to replay —
// that would mean the journal was written under a conflict relation too
// weak for its recovery method.
std::unique_ptr<SpecState> RecoverState(const Adt& adt, const OpSeq& ops);
std::unique_ptr<SpecState> RecoverState(const Adt& adt,
                                        const DecodedJournal& image);

}  // namespace ccr

#endif  // CCR_TXN_JOURNAL_H_
