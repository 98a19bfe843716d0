// Copyright 2026 The ccr Authors.
//
// The three workloads. Each runs one measured phase: its set-up (timed
// several times, median reported), the measured loop for cfg.seconds, the
// correctness gates, and, when cfg.tracer is set, the per-layer metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <vector>

#include "common.h"
#include "gen.h"

namespace ccr {
class TxnManager;
}  // namespace ccr

namespace perfbench {

// The offered rate of serve_zipf (requests per second).
inline constexpr double kServeRate = 16000;

PhaseResult RunServeZipf(const RunConfig& cfg);
PhaseResult RunBankContended(const RunConfig& cfg);
PhaseResult RunRestartCold(const RunConfig& cfg);

// The open-loop generator of serve_zipf: sleeps until each request of
// `schedule` is due (relative to start_ns), records how late it woke into
// `lag`, and hands the request to `submit` with its index. The engine
// receives nothing but what `submit` forwards.
void RunOpenLoop(const std::vector<ServeRequest>& schedule, uint64_t start_ns,
                 const std::function<void(size_t)>& submit, Histogram* lag);

// Per-layer accounting a workload fills in over its measured phase; every
// workload reports the same per-layer metric names, with zeros for layers
// it does not load.
struct LayerTotals {
  double wall_s = 0;
  double cpu_s = 0;
  double ops = 0;  // completed operations of the measured phase
  // serve/frontend (ServeStats deltas)
  double serve_accepted = 0, serve_txns = 0, serve_groups = 0,
         serve_demoted = 0, serve_queue_max = 0, serve_shed = 0;
  double gen_lag_p99_us = 0;
  // txn/group_commit (GroupCommitStats deltas) and the journal bytes the
  // device sink saw
  double gc_records = 0, gc_syncs = 0, journal_bytes = 0;
  // txn/txn_manager: client-side attempts and retries, ManagerStats kills
  double txn_logical = 0, txn_retries = 0, txn_kills = 0;
  // txn/atomic_object (ObjectStats summed over objects)
  double lock_executes = 0, lock_conflicts = 0, lock_waits = 0,
         lock_wakeups = 0, lock_spurious = 0, lock_queue_max = 0;
  std::vector<uint64_t> lock_wait_us;  // per-wait blocked time samples
  // txn/uip_recovery, txn/du_recovery (RecoveryStats)
  double uip_undo_ops = 0, uip_aborts = 0, du_intention_ops = 0,
         du_commits = 0, du_rebuilds = 0, du_txns = 0;
  // txn/object_directory
  double dir_max_stripe_depth = 0;
  // store/log_store
  double store_bytes_written = 0, store_compactions = 0;
  std::vector<double> store_dead_share;
  // eviction
  double evictions = 0, fault_ins = 0;
  // restart
  std::vector<double> recover_ms, store_open_ms, journal_scan_ms,
      checkpoint_write_ms;
  double tail_records = 0, installed = 0, deferred = 0;

  // Adds the object-level stats of every object of `manager`.
  void AddObjects(ccr::TxnManager* manager);
};

// Appends every per-layer metric, computed from `t` and the traced spans.
void EmitLayerMetrics(const LayerTotals& t, const std::vector<Span>& spans,
                      PhaseResult* r);

// Times one directory lookup (TxnManager::object) of `id` as a "dir.lookup"
// span; a no-op without a tracer.
void ProbeDirectory(ccr::TxnManager* manager, Tracer* tracer,
                    const std::string& id);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
