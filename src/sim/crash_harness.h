// Copyright 2026 The ccr Authors.
//
// Crash-restart scenario over the multithreaded engine: run a workload
// with a durable journal, kill the "machine" at an arbitrary byte offset
// of the on-disk image (losing all volatile state), recover a freshly
// built system from the surviving bytes, and audit the result against the
// commit order the run actually produced.
//
// Ground truth is what the run acked, read from outside the engine — the
// engine's Journal keeps no records. The run's full commit order is the
// drained pre-crash image, decoded; it must decode cleanly, hold exactly
// the entries the pipeline sequenced, and reproduce the live pre-crash
// manager's every committed state (spec-level replay), so every acked
// commit is in it. Against that sequence:
//
//   1. the records scanned from the cut image must be a prefix of the
//      full sequence (reads both decoded images);
//   2. every recovered object's committed state must equal an independent
//      spec-level replay of that prefix (RecoverState, not the engine;
//      reads the cut image);
//   3. the ack-durability contract: every commit record covered by a
//      completed sync at or below the crash offset — i.e. every
//      transaction whose commit could have been *acknowledged* before the
//      crash — is recovered (reads the writer's sync offsets, the points
//      the acks waited for). Unacknowledged records may go either way but
//      must still recover to a clean prefix (audits 1 and 2).
//
// The run journals through a GroupCommitPipeline in any DurabilityMode
// (kSync per-record baseline, kGroup batched, kRelaxed fire-and-forget),
// so crash points land mid-batch as well as mid-record. This is the
// driver-level crash scenario behind the randomized crash-restart
// property tests and the fault sweeps in bench_journal.

#ifndef CCR_SIM_CRASH_HARNESS_H_
#define CCR_SIM_CRASH_HARNESS_H_

#include <functional>
#include <string>

#include "serve/frontend.h"
#include "sim/driver.h"
#include "sim/open_loop.h"
#include "txn/group_commit.h"
#include "txn/journal_io.h"

namespace ccr {

// Builds the system's objects into a fresh manager. Called twice per
// scenario: once for the pre-crash run, once for the post-crash restart —
// a crash loses every volatile structure, so recovery must start from a
// newly constructed engine.
using SystemFactory = std::function<void(TxnManager* manager)>;

struct CrashScenarioOptions {
  DriverOptions driver;
  // Crash point as a fraction of the final image size (0 = before any
  // record reached the disk, 1 = clean shutdown). The byte offset this
  // lands on is arbitrary — usually mid-record (and, under kGroup,
  // mid-batch), exercising the torn-tail truncation rule.
  double crash_fraction = 0.5;
  // How the run journals. kSync is the PR 3 per-record-fdatasync
  // behavior; kGroup batches the durability point behind early lock
  // release; kRelaxed acknowledges before durability.
  GroupCommitOptions group_commit{DurabilityMode::kSync};
};

struct CrashScenarioResult {
  uint64_t image_bytes = 0;      // journal bytes on disk at full run
  uint64_t crash_offset = 0;     // bytes surviving the crash
  size_t records_total = 0;      // commit records the full run journaled
  size_t syncs_total = 0;        // syncs the full run issued (batches)
  // Records covered by the last sync whose offset <= crash_offset: the
  // transactions that could have been acknowledged before the crash. (A
  // sync with offset > crash_offset cannot have returned before it.)
  size_t acked_records = 0;
  RecoveryReport report;         // what the post-crash scan found
  Status status;                 // recovery outcome (scan + replay)
  bool prefix_of_commit_order = false;  // audit (1) above
  bool state_matches_prefix = false;    // audit (2) above
  bool acked_recovered = false;         // audit (3) above

  // Audit (4), batch atomicity: a multi-object commit record (ExecuteBatch
  // transactions touching >1 object) must be all-or-nothing across its
  // objects after restart. Measured per record of the full decoded image
  // against each named object's recovered last_committed_lsn: `partial` counts records some but not
  // all of whose objects reflect them — must be 0 at every crash offset.
  // (Meaningful for workloads without lifecycle churn of the batch ids; an
  // incarnation reset rewinds last_committed_lsn.)
  size_t batch_records_total = 0;      // multi-object records journaled
  size_t batch_records_recovered = 0;  // fully applied at every object
  size_t batch_records_partial = 0;    // applied at a strict subset

  bool ok() const {
    return status.ok() && prefix_of_commit_order && state_matches_prefix &&
           acked_recovered && batch_records_partial == 0;
  }
};

// Runs the full scenario described above.
CrashScenarioResult RunCrashScenario(const SystemFactory& factory,
                                     const TxnBody& body,
                                     const CrashScenarioOptions& options);

// ---------------------------------------------------------------------------
// Serving crash scenario: RunCrashScenario with the ServeFrontend in the
// loop. Submissions arrive as an unpaced burst from several submitter
// threads — the bounded admission queue genuinely fills (and sheds), so
// the crash cut lands at an instant with submissions queued and acks
// outstanding. Completions are acked off the group-commit watermark, so
// the serving ack IS the durability promise the audits check:
//
//   1-4. the RunCrashScenario audits (prefix, state, acked-recovered,
//        batch atomicity) over the coalesced commit records;
//   5.   conservation against a client-side ledger: submitters record
//        every op an OK ack delivered, with its returned value, and the
//        multiset of ops in the drained image must equal that ledger —
//        shed and failed submissions left no trace, acked ones exactly
//        their ops;
//   6.   the cut actually interrupted serving (inflight_at_crash > 0 for
//        any mid-run fraction): unacked records lay past the cut.
// ---------------------------------------------------------------------------

struct ServeCrashOptions {
  size_t requests = 400;          // submissions the burst issues
  size_t submit_threads = 2;      // unpaced submitter threads
  uint64_t seed = 7;
  ServeFrontendOptions frontend;  // size queue_depth < requests to shed
  double crash_fraction = 0.5;
  GroupCommitOptions group_commit{DurabilityMode::kGroup};
};

struct ServeCrashResult {
  // Serving-side accounting (ServeStats snapshot after Drain).
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t shed = 0;
  uint64_t completed_ok = 0;
  uint64_t completed_error = 0;
  uint64_t max_queue_depth = 0;
  uint64_t coalesced_txns = 0;
  // Audit 5: ops in the drained image vs ops in the client ledger.
  uint64_t journal_ops = 0;
  uint64_t completed_ops = 0;
  bool ops_conserved = false;
  // Audit 6: records not fully synced at the cut — serving was mid-flight.
  size_t inflight_at_crash = 0;
  // Audits 1-4 over the cut image.
  CrashScenarioResult crash;

  bool ok() const {
    return crash.ok() && ops_conserved &&
           (crash.crash_offset >= crash.image_bytes ||
            inflight_at_crash > 0);
  }
};

ServeCrashResult RunServeCrashScenario(const SystemFactory& factory,
                                       const RequestFactory& make_request,
                                       const ServeCrashOptions& options);

// ---------------------------------------------------------------------------
// Maintenance-path crash scenario: the checkpoint/segment/store counterpart
// of RunCrashScenario. A workload first runs through a kSync pipeline over
// a MemorySink (sim/memory_journal.h); that image, decoded, is the
// ground-truth commit-record sequence. The harness then replays
// that sequence through a SegmentedFileSink (one append + sync per record
// — the per-record ack point) into a temp directory, mirror-applying each
// acknowledged record into a live replica manager with a
// LogStructuredStore attached, so fuzzy checkpoints of the replica carry
// exact per-object LSNs. Every `evict_every` records one cold object is
// evicted to the store (its state then lives only there, and later
// mirror-applies fault it back in); `evict_every` 0 gives the
// checkpoint-only run. Every `checkpoint_every` records a maintenance pass
// runs: capture the anchor, publish the checkpoint as a synced store batch
// (resident Puts + the meta key), truncate dead journal segments below the
// now-durable anchor, and force-compact the store's oldest segment. One
// named crash point — rot.* and trunc.* (txn/journal_io.h) or store.*
// (store/log_store.h) — is armed on a CrashPoints shared by the journal
// sink and the store; once it fires the simulated machine is dead: every
// later append, checkpoint, store batch, and compaction fails, and the
// remaining records are lost. Finally a freshly built system opens a fresh
// store over the surviving segments, restarts through RestartFromDir, and
// is audited:
//
//   1. recovery lands on exactly the appended prefix of the ground truth —
//      the (checkpoint, tail) pair on disk is consistent at every crash
//      point, and in particular 0 acked records are lost;
//   2. every recovered object's state equals an independent spec-level
//      replay of that prefix (evicted images, checkpoint batches, and the
//      journal tail agree).
// ---------------------------------------------------------------------------

struct StoreCrashOptions {
  DriverOptions driver;
  // Journal segment size (small so truncation actually happens).
  uint64_t max_segment_bytes = 512;
  // Store segment size (small so eviction/checkpoint batches rotate
  // segments and compaction has a victim).
  uint64_t store_segment_bytes = 2048;
  // Records between maintenance passes (checkpoint + truncate + compact);
  // 0 picks roughly thirds of the run.
  size_t checkpoint_every = 0;
  // Records between eviction passes (one object evicted round-robin per
  // pass); 0 disables eviction.
  size_t evict_every = 4;
  // Named crash point to arm (store.*, rot.*, trunc.*); empty = no crash.
  std::string crash_point;
  int replay_threads = 1;
};

struct StoreCrashResult {
  size_t records_total = 0;     // ground-truth records the workload produced
  size_t records_appended = 0;  // prefix that reached the journal before death
  size_t acked_records = 0;     // append + sync both returned OK
  bool crash_fired = false;     // the armed point was actually reached
  size_t checkpoints_written = 0;
  size_t truncations = 0;       // maintenance passes that removed segments
  size_t evictions = 0;         // objects actually evicted to the store
  uint64_t store_compactions = 0;  // store segment rewrites completed
  Status status;                // restart outcome
  RestartSummary summary;
  bool recovered_all_appended = false;  // audit (1) above
  bool state_matches_prefix = false;    // audit (2) above

  bool ok() const {
    return status.ok() && recovered_all_appended && state_matches_prefix &&
           acked_records <= records_appended;
  }
};

StoreCrashResult RunStoreCrashScenario(const SystemFactory& factory,
                                       const TxnBody& body,
                                       const StoreCrashOptions& options);

}  // namespace ccr

#endif  // CCR_SIM_CRASH_HARNESS_H_
