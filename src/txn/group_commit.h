// Copyright 2026 The ccr Authors.
//
// Group-commit durability pipeline — takes fdatasync out of the object
// critical section.
//
// PR 3 wired durability into the worst possible place for concurrency:
// AtomicObject::Commit holds the object mutex while the journal frames the
// commit record and the sink issues a per-record fdatasync, so every
// durable commit stalls every waiter on that object for a full disk sync.
// This pipeline splits the commit path in two:
//
//   * SEQUENCE (under the object/journal locks, cheap): the committing
//     transaction's record is assigned a monotone LSN and pushed onto a
//     shared queue. The object lock is released immediately afterwards —
//     early lock release.
//   * FLUSH (background thread, no object locks): the flusher drains the
//     queue in batches (up to max_batch records, lingering up to
//     max_delay_us for stragglers), encodes and appends the frames, issues
//     ONE fdatasync for the whole batch, then advances the durable-LSN
//     watermark and wakes blocked committers.
//
// TxnManager::Commit acknowledges a transaction only once its highest LSN
// is durable (WaitDurable), so the ack contract is unchanged: an
// acknowledged commit is on disk. What changed is who pays for the sync —
// a batch of committers shares one fdatasync, and waiters blocked on the
// committing transaction's locks run during the sync instead of behind it.
//
// Why early lock release is safe here: there is a single ordered log, and
// LSNs are assigned in commit order under the journal mutex. If T2 read
// state that T1's commit installed at some object, then T2 could only have
// acquired its conflicting operation locks after T1's commit at that
// object sequenced T1's record — so lsn(T1's record there) < lsn(every
// record of T2). Waiting for your own highest LSN therefore transitively
// waits for every commit you could have read from: no acknowledged
// transaction can depend on an unacknowledged (possibly lost) one, and the
// durable journal prefix is always closed under read-from. A crash can
// lose a sequenced-but-unsynced suffix, but every record in that suffix
// belongs to a transaction that was never acknowledged — semantically an
// abort, which the recovery theory already covers.
//
// Modes:
//   kSync    — per-record append+fdatasync inline in Sequence (inside the
//              object critical section); the record is durable when the
//              append returns and no flusher thread runs. This is the
//              journal's one inline-sync mode: harnesses that want each
//              record on disk before the next one use it, and benches
//              use it as the per-record-sync baseline.
//   kGroup   — the pipeline described above; ack waits for the watermark.
//   kRelaxed — sequence and ack immediately; the flusher still makes the
//              log durable in the background, but an acknowledged commit
//              may be lost to a crash (the watermark, not the ack, is the
//              durability point).

#ifndef CCR_TXN_GROUP_COMMIT_H_
#define CCR_TXN_GROUP_COMMIT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/latency_recorder.h"
#include "txn/journal.h"

namespace ccr {

class JournalWriter;

// Lsn / kNoLsn live in txn/journal.h (the journal assigns them).

enum class DurabilityMode {
  kSync,     // per-record fdatasync inside the critical section (baseline)
  kGroup,    // batched background sync; ack waits for the durable watermark
  kRelaxed,  // batched background sync; ack does not wait (may lose acks)
};

struct GroupCommitOptions {
  DurabilityMode mode = DurabilityMode::kGroup;
  // Flush a batch as soon as it holds this many records.
  size_t max_batch = 64;
  // Upper bound on how long the flusher lingers for stragglers before
  // paying the sync. The linger trades ack latency for batching, so it is
  // cut short the moment any committer blocks on the watermark: a blocked
  // committer cannot produce more records, and under saturation the sync
  // itself is the batching window (records sequenced during batch N's
  // fdatasync form batch N+1) — the linger only earns its keep on an idle
  // log with sparse, ack-free (kRelaxed) arrivals.
  uint64_t max_delay_us = 500;
  // First LSN this pipeline assigns. A post-restart pipeline continues the
  // durable journal's LSN space (restart high watermark + 1); must match
  // the journal's set_base_lsn + 1.
  Lsn first_lsn = 1;
};

// Pipeline counters, all cumulative. In kSync mode every record is its own
// batch and its own sync, so records == batches == syncs and the baseline
// is directly comparable in the same table.
struct GroupCommitStats {
  uint64_t records_sequenced = 0;  // records accepted by Sequence
  uint64_t records_flushed = 0;    // records appended to the sink
  uint64_t batches = 0;            // flush cycles that appended >= 1 record
  uint64_t syncs = 0;              // sink Sync calls issued
  uint64_t max_batch_observed = 0;
  uint64_t async_acks = 0;  // OnDurable callbacks registered (incl. inline)
  // Commit-call-to-acknowledgment latency of durable commits, recorded by
  // TxnManager::Commit around the object-commit loop + WaitDurable.
  LatencyRecorder ack_latency_us;
};

class GroupCommitPipeline {
 public:
  // `writer` must outlive the pipeline. The flusher thread starts
  // immediately for kGroup/kRelaxed; kSync runs no thread.
  explicit GroupCommitPipeline(JournalWriter* writer,
                               GroupCommitOptions options = {});
  ~GroupCommitPipeline();

  GroupCommitPipeline(const GroupCommitPipeline&) = delete;
  GroupCommitPipeline& operator=(const GroupCommitPipeline&) = delete;

  DurabilityMode mode() const { return options_.mode; }

  // Sequences one journal entry (commit or lifecycle record): assigns the
  // next LSN and either appends+syncs inline (kSync) or enqueues it for
  // the flusher (kGroup/kRelaxed). Called under the journal mutex
  // (Journal::AppendCommit/AppendLifecycle forward), which is what makes
  // the LSN order equal the journal's entry order.
  Lsn Sequence(Journal::Entry entry);

  // Blocks until `lsn` is durable (kGroup). Returns immediately in kSync
  // (already durable) and kRelaxed (ack is explicitly non-durable). No-op
  // for kNoLsn.
  void WaitDurable(Lsn lsn);

  // Async counterpart of WaitDurable: runs `cb` once `lsn` is covered by
  // the mode's acknowledgment point, without parking the calling thread.
  // Mirrors WaitDurable's contract exactly — kSync (already durable),
  // kRelaxed (ack is sequencing), and kNoLsn run `cb` inline on the calling
  // thread; in kGroup a not-yet-durable `lsn` defers `cb` to the flusher,
  // which invokes it (holding no pipeline locks) right after the batch sync
  // that advances the watermark past `lsn`. Callbacks for one batch fire in
  // LSN order; they must not block on the pipeline (WaitDurable/Drain from
  // a callback deadlocks the flusher). A pending callback cuts the
  // flusher's linger exactly like a parked committer: it stands for a
  // client waiting on the ack, and under saturation the sync itself is the
  // batching window, so lingering past a registered ack only adds latency.
  void OnDurable(Lsn lsn, std::function<void()> cb);

  // Highest LSN known durable (on disk, synced).
  Lsn durable_lsn() const { return durable_lsn_.load(std::memory_order_acquire); }

  // Blocks until everything sequenced so far is durable AND every OnDurable
  // callback covered by the watermark has finished running — after Drain
  // returns, no ack for a durable LSN is still pending or mid-flight on the
  // flusher. Used at shutdown and by harnesses before inspecting the sink
  // image or ack-side state.
  void Drain();

  void RecordAckLatency(uint64_t us);

  GroupCommitStats stats() const;

 private:
  void FlusherLoop();
  // Appends `batch` to the writer, issues one sync, advances the watermark
  // to `high`, and wakes committers. Called with mu_ released.
  void FlushBatch(std::deque<Journal::Entry>* batch, Lsn high);

  JournalWriter* const writer_;
  const GroupCommitOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // flusher waits for records / stop
  std::condition_variable durable_cv_;  // committers wait for the watermark
  std::deque<Journal::Entry> queue_;  // sequenced, not yet flushed
  size_t waiters_ = 0;  // threads blocked on the watermark (cuts the linger)
  // Deferred OnDurable callbacks, a min-heap on lsn (std::push_heap with a
  // greater-than comparator). Invariant: every pending lsn is above the
  // watermark and at or below next_lsn_-1, so its record is still in queue_
  // or in the batch being flushed — the flusher always drains the heap.
  struct PendingAck {
    Lsn lsn;
    std::function<void()> cb;
  };
  std::vector<PendingAck> pending_acks_;
  size_t acks_in_flight_ = 0;  // ready acks currently executing off-lock
  Lsn next_lsn_ = 1;                         // LSN the next Sequence assigns
  std::atomic<Lsn> durable_lsn_{0};
  bool stop_ = false;
  GroupCommitStats stats_;  // ack_latency_us lives in ack_latency_us_

  // Ack latencies are recorded by every durable committer as it wakes;
  // they get their own mutex so a batch of waking committers does not
  // convoy against the flusher and the sequencers on mu_.
  mutable std::mutex ack_mu_;
  LatencyRecorder ack_latency_us_;

  std::thread flusher_;
};

}  // namespace ccr

#endif  // CCR_TXN_GROUP_COMMIT_H_
