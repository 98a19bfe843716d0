// Copyright 2026 The ccr Authors.
//
// Shared pieces of the workloads: the open-loop generator, the per-layer
// metric table, and the directory probe.

#include <algorithm>

#include "txn/atomic_object.h"
#include "txn/txn_manager.h"
#include "workloads.h"

namespace perfbench {

void RunOpenLoop(const std::vector<ServeRequest>& schedule, uint64_t start_ns,
                 const std::function<void(size_t)>& submit, Histogram* lag) {
  UseFineTimerSlack();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const uint64_t due = start_ns + schedule[i].due_ns;
    uint64_t now = NowNs();
    if (now < due) {
      SleepUntilNs(due);
      now = NowNs();
    }
    lag->Record(now - due);
    submit(i);
  }
}

void LayerTotals::AddObjects(ccr::TxnManager* manager) {
  for (ccr::AtomicObject* obj : manager->objects()) {
    const ccr::ObjectStats s = obj->stats();
    lock_executes += static_cast<double>(s.executes);
    lock_conflicts += static_cast<double>(s.conflicts);
    lock_waits += static_cast<double>(s.waits);
    lock_wakeups += static_cast<double>(s.wakeups);
    lock_spurious += static_cast<double>(s.spurious_wakeups);
    lock_queue_max =
        std::max(lock_queue_max, static_cast<double>(s.max_queue_depth));
    // Every recorded wait, read back rank by rank from the exact recorder.
    if (s.wait_time_us.count() > 0) {
      const size_t n = s.wait_time_us.count();
      for (size_t i = 1; i <= n; ++i) {
        lock_wait_us.push_back(s.wait_time_us.Percentile(
            100.0 * static_cast<double>(i) / static_cast<double>(n)));
      }
    }
    const ccr::RecoveryStats rs = obj->recovery_stats();
    if (obj->recovery().name().rfind("UIP", 0) == 0) {
      uip_undo_ops += static_cast<double>(rs.replay_ops + rs.inverse_ops);
      uip_aborts += static_cast<double>(rs.aborts);
    } else {
      du_intention_ops += static_cast<double>(rs.intention_ops);
      du_commits += static_cast<double>(rs.commits);
      du_rebuilds += static_cast<double>(rs.workspace_rebuilds);
      du_txns += static_cast<double>(rs.commits + rs.aborts);
    }
  }
  dir_max_stripe_depth =
      std::max(dir_max_stripe_depth,
               static_cast<double>(manager->directory_stats().max_stripe_depth));
}

void ProbeDirectory(ccr::TxnManager* manager, Tracer* tracer,
                    const std::string& id) {
  if (tracer == nullptr) return;
  ScopedSpan span(tracer, "dir.lookup", 0, 0);
  (void)manager->object(id);
}

void EmitLayerMetrics(const LayerTotals& t, const std::vector<Span>& spans,
                      PhaseResult* r) {
  const auto p = [&](std::string_view name, double pct) {
    return PercentileUs(Tracer::Durations(spans, name), pct);
  };
  const double ops = t.ops;
  // serve/frontend
  r->Add("serve.submit_us.p50", p("serve.submit", 50), "us");
  r->Add("serve.submit_us.p99", p("serve.submit", 99), "us");
  r->Add("serve.subs_per_txn", Ratio(t.serve_accepted, t.serve_txns),
         "subs/txn");
  r->Add("serve.demoted_share", Ratio(t.serve_demoted, t.serve_groups),
         "ratio");
  r->Add("serve.queue_max", t.serve_queue_max, "count");
  r->Add("serve.shed", t.serve_shed, "count");
  // benchmark generator
  r->Add("gen.lag_us.p99", t.gen_lag_p99_us, "us");
  // txn/group_commit
  r->Add("gc.records_per_sync", Ratio(t.gc_records, t.gc_syncs), "rec/sync");
  r->Add("gc.syncs_per_s", Ratio(t.gc_syncs, t.wall_s), "1/s");
  r->Add("gc.sync_us.p50", p("gc.sync", 50), "us");
  r->Add("gc.sync_us.p99", p("gc.sync", 99), "us");
  r->Add("gc.append_us.p50", p("gc.append", 50), "us");
  // txn/journal, txn/journal_io
  r->Add("journal.bytes_per_op", Ratio(t.journal_bytes, ops), "B/op");
  // txn/txn_manager
  r->Add("txn.begin_us.p50", p("txn.begin", 50), "us");
  r->Add("txn.execute_us.p50", p("txn.execute", 50), "us");
  r->Add("txn.execute_us.p99", p("txn.execute", 99), "us");
  r->Add("txn.commit_us.p50", p("txn.commit", 50), "us");
  r->Add("txn.commit_us.p99", p("txn.commit", 99), "us");
  r->Add("txn.self_us.p50", PercentileUs(Tracer::SelfTimes(spans, "txn"), 50),
         "us");
  r->Add("txn.retry_share", Ratio(t.txn_retries, t.txn_logical), "ratio");
  r->Add("txn.deadlock_victims", t.txn_kills, "count");
  // txn/atomic_object
  r->Add("lock.conflict_share", Ratio(t.lock_conflicts, t.lock_executes),
         "ratio");
  r->Add("lock.waits_per_txn", Ratio(t.lock_waits, t.txn_logical), "waits/txn");
  std::vector<uint64_t> waits_ns;
  waits_ns.reserve(t.lock_wait_us.size());
  for (uint64_t us : t.lock_wait_us) waits_ns.push_back(us * 1000);
  r->Add("lock.wait_us.p50", PercentileUs(waits_ns, 50), "us");
  r->Add("lock.wait_us.p99", PercentileUs(waits_ns, 99), "us");
  r->Add("lock.spurious_share",
         Ratio(t.lock_spurious, t.lock_wakeups + t.lock_spurious), "ratio");
  r->Add("lock.queue_max", t.lock_queue_max, "count");
  // txn/uip_recovery, txn/du_recovery
  r->Add("recovery.uip.undo_ops_per_abort",
         Ratio(t.uip_undo_ops, t.uip_aborts), "ops/abort");
  r->Add("recovery.du.intention_ops_per_commit",
         Ratio(t.du_intention_ops, t.du_commits), "ops/commit");
  r->Add("recovery.du.rebuilds_per_txn", Ratio(t.du_rebuilds, t.du_txns),
         "rebuilds/txn");
  // txn/object_directory
  r->Add("dir.lookup_us.p50", p("dir.lookup", 50), "us");
  r->Add("dir.lookup_us.p99", p("dir.lookup", 99), "us");
  r->Add("dir.max_stripe_depth", t.dir_max_stripe_depth, "count");
  // store/log_store
  r->Add("store.get_us.p50", p("store.get", 50), "us");
  r->Add("store.get_us.p99", p("store.get", 99), "us");
  r->Add("store.batch_us.p50", p("store.batch", 50), "us");
  r->Add("store.batch_us.p99", p("store.batch", 99), "us");
  r->Add("store.bytes_written_per_op", Ratio(t.store_bytes_written, ops),
         "B/op");
  r->Add("store.dead_share", Median(t.store_dead_share), "ratio");
  r->Add("store.compactions", t.store_compactions, "count");
  // eviction
  r->Add("evict.evictions_per_op", Ratio(t.evictions, ops), "1/op");
  r->Add("evict.fault_ins_per_op", Ratio(t.fault_ins, ops), "1/op");
  // restart
  r->Add("restart.recover_ms", Median(t.recover_ms), "ms");
  r->Add("restart.store_open_ms", Median(t.store_open_ms), "ms");
  r->Add("restart.journal_scan_ms", Median(t.journal_scan_ms), "ms");
  r->Add("restart.tail_records", t.tail_records, "count");
  r->Add("restart.installed", t.installed, "count");
  r->Add("restart.deferred", t.deferred, "count");
  r->Add("checkpoint.write_ms", Median(t.checkpoint_write_ms), "ms");
  // process
  r->Add("proc.cpu_util", Ratio(t.cpu_s, t.wall_s), "cpu_s/s");
}

}  // namespace perfbench
