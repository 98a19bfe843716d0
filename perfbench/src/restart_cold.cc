// Copyright 2026 The ccr Authors.
//
// restart_cold: restart after a crash over a dataset 8x the resident cap.
// Set-up writes one durable directory (kRestartKeys lazily created
// counters in a LogStructuredStore, a store checkpoint, journal truncation,
// then a tail of kTailIncs increments in a SegmentedFileSink journal, all
// behind the modelled device). Each measured cycle restarts a byte-identical
// copy of it with lazy store install and then serves a fixed number of
// closed-loop operations, so both restart and fault-in/eviction work land
// in the cycle's wall time.

#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adt/counter.h"
#include "core/conflict_relation.h"
#include "store/log_store.h"
#include "txn/checkpoint.h"
#include "txn/group_commit.h"
#include "txn/journal.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
constexpr size_t kCreateBatch = 250;
constexpr size_t kTailIncs = 5000;
constexpr size_t kResidentCap = kRestartKeys / 8;
constexpr int kClients = 3;
constexpr int kReplayThreads = 3;
// Operations per client per cycle: sized so that restart is about half of
// a cycle's wall time on a 4-vCPU host.
constexpr size_t kOpsPerClient = 800;
// Mean of the exponential pause a client takes after each operation. Every
// operation, reads included, commits through the pipeline, so three clients
// without a pause fall into lock step with the flusher's 100 us sync cycle:
// per-operation latency then splits into a one-sync and a two-sync cluster
// of about half the samples each, and p50 jumps between them from run to
// run (128 or 214 us). The pause spreads arrivals over the cycle.
constexpr double kThinkMeanNs = 50'000;
constexpr int kMaxAttempts = 1000;
constexpr const char* kFactory = "counter";

void RegisterCounterFactory(ccr::TxnManager* manager) {
  manager->RegisterFactory(kFactory, [](const ccr::ObjectId& id) {
    auto ctr = std::make_shared<ccr::Counter>(id);
    ccr::ObjectConfig config;
    config.adt = ctr;
    config.conflict = ccr::MakeNrbcConflict(ctr);
    config.recovery = std::make_unique<ccr::UipRecovery>(ctr);
    return config;
  });
}

ccr::Invocation IncInv(const std::string& id, int64_t amount) {
  return ccr::Invocation(id, ccr::Counter::kInc, "inc", {ccr::Value(amount)});
}

ccr::Invocation ReadInv(const std::string& id) {
  return ccr::Invocation(id, ccr::Counter::kRead, "read", {});
}

// What set-up wrote, for the restart gates.
struct World {
  ccr::Lsn anchor = 0;
  ccr::Lsn high_lsn = 0;
  std::vector<int64_t> value;  // every counter's durable value
  double checkpoint_ms = 0;
};

// Writes the durable directory `dir`. The bulk load does not attach the
// commit pipeline to the manager, so lazy creates do not each wait for a
// device sync; the pipeline is drained before the checkpoint and at the end.
bool BuildWorld(const std::string& dir, uint64_t seed, World* w,
                std::string* error) {
  RemoveTree(dir);
  std::filesystem::create_directories(dir);
  auto store = ccr::LogStructuredStore::Open(dir);
  if (!store.ok()) {
    *error = "store open: " + store.status().ToString();
    return false;
  }
  DeviceStore device_store(store->get(), kDeviceSyncNs);
  auto sink = ccr::SegmentedFileSink::Open(dir, 1);
  if (!sink.ok()) {
    *error = "journal open: " + sink.status().ToString();
    return false;
  }
  DeviceSink device(sink->get(), kDeviceSyncNs);
  ccr::JournalWriter writer(&device);
  ccr::GroupCommitPipeline pipeline(&writer);
  ccr::Journal journal;
  journal.set_pipeline(&pipeline);
  ccr::TxnManagerOptions options;
  options.record_history = false;
  ccr::TxnManager manager(options);
  RegisterCounterFactory(&manager);
  manager.set_object_store(&device_store);
  manager.set_lifecycle_journal(&journal);

  Rng rng(StreamSeed(seed, 4));
  w->value.assign(kRestartKeys, 0);
  const auto commit = [&](ccr::Transaction* txn) {
    auto lsn = manager.CommitAsync(txn);
    if (!lsn.ok()) *error = "commit: " + lsn.status().ToString();
    return lsn.ok();
  };
  for (uint32_t base = 0; base < kRestartKeys; base += kCreateBatch) {
    std::vector<ccr::BatchOp> ops;
    for (uint32_t k = base; k < base + kCreateBatch && k < kRestartKeys; ++k) {
      w->value[k] = 1 + static_cast<int64_t>(rng.Uniform(100));
      std::string id = CounterName(k);
      ccr::Invocation inv = IncInv(id, w->value[k]);
      ops.push_back(ccr::BatchOp{std::move(id), kFactory, std::move(inv)});
    }
    const std::shared_ptr<ccr::Transaction> txn = manager.Begin();
    auto done = manager.ExecuteBatch(txn.get(), ops);
    if (!done.ok()) {
      *error = "create batch: " + done.status().ToString();
      return false;
    }
    if (!commit(txn.get())) return false;
  }
  pipeline.Drain();

  w->anchor = journal.high_lsn();
  ccr::CheckpointerOptions ckpt_options;
  ckpt_options.store = &device_store;
  ccr::Checkpointer checkpointer(dir, ckpt_options);
  const uint64_t c0 = NowNs();
  auto written = checkpointer.Write(&manager, w->anchor);
  w->checkpoint_ms = static_cast<double>(NowNs() - c0) / 1e6;
  if (!written.ok()) {
    *error = "checkpoint: " + written.status().ToString();
    return false;
  }
  const ccr::Status truncated = (*sink)->TruncateBelow(w->anchor);
  if (!truncated.ok()) {
    *error = "truncate: " + truncated.ToString();
    return false;
  }
  for (size_t i = 0; i < kTailIncs; ++i) {
    const uint32_t k = static_cast<uint32_t>(rng.Uniform(kRestartKeys));
    const std::shared_ptr<ccr::Transaction> txn = manager.Begin();
    auto r = manager.Execute(txn.get(), IncInv(CounterName(k), 1));
    if (!r.ok()) {
      *error = "tail increment: " + r.status().ToString();
      return false;
    }
    if (!commit(txn.get())) return false;
    ++w->value[k];
  }
  pipeline.Drain();
  w->high_lsn = journal.high_lsn();
  return true;
}

// The restarted engine of one cycle, in dependency order (destruction runs
// pipeline, writer, sinks, manager, store).
struct Engine {
  std::unique_ptr<ccr::LogStructuredStore> store;
  std::unique_ptr<DeviceStore> device_store;
  std::unique_ptr<ccr::TxnManager> manager;
  ccr::Journal journal;
  std::unique_ptr<ccr::SegmentedFileSink> sink;
  std::unique_ptr<DeviceSink> device;
  std::unique_ptr<ccr::JournalWriter> writer;
  std::unique_ptr<ccr::GroupCommitPipeline> pipeline;

  ~Engine() {
    if (pipeline) pipeline->Drain();
  }
};

struct CycleShared {
  ccr::TxnManager* manager = nullptr;
  const World* world = nullptr;
  Tracer* tracer = nullptr;
  uint64_t seed = 0;
  uint64_t cycle = 0;
  std::vector<std::atomic<int32_t>> issued =
      std::vector<std::atomic<int32_t>>(kRestartKeys);
  std::vector<std::atomic<int32_t>> committed =
      std::vector<std::atomic<int32_t>>(kRestartKeys);
};

struct ClientResult {
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t retries = 0;
  std::vector<uint64_t> latency_ns;
};

void RunCycleClient(CycleShared* sh, int client, ClientResult* out) {
  ccr::TxnManager& m = *sh->manager;
  Rng rng(StreamSeed(sh->seed, 1000 + sh->cycle * kClients +
                                   static_cast<uint64_t>(client)));
  out->latency_ns.reserve(kOpsPerClient);
  for (size_t i = 0; i < kOpsPerClient; ++i) {
    const RestartOp op = NextRestartOp(&rng);
    const uint64_t req = (sh->cycle * kClients + client) * kOpsPerClient + i;
    Tracer* tracer =
        sh->tracer != nullptr && sh->tracer->Sampled(req) ? sh->tracer : nullptr;
    const std::string id = CounterName(op.key);
    ProbeDirectory(&m, tracer, id);
    const int32_t before = sh->committed[op.key].load();
    if (op.increment) sh->issued[op.key]++;
    const uint64_t t0 = NowNs();
    bool done = false;
    int64_t read = 0;
    {
      ScopedSpan span(tracer, "txn", 0, req);
      for (int attempt = 0; attempt < kMaxAttempts && !done; ++attempt) {
        std::shared_ptr<ccr::Transaction> txn;
        {
          ScopedSpan s(tracer, "txn.begin", span.id(), req);
          txn = m.Begin();
        }
        ccr::StatusOr<ccr::Value> v = [&] {
          ScopedSpan s(tracer, "txn.execute", span.id(), req);
          return m.Execute(txn.get(), op.increment ? IncInv(id, 1) : ReadInv(id));
        }();
        ccr::Status st = v.status();
        if (st.ok()) {
          ScopedSpan s(tracer, "txn.commit", span.id(), req);
          st = m.Commit(txn.get());
          if (st.ok()) {
            done = true;
            if (!op.increment) read = v->AsInt();
            break;
          }
        } else {
          ScopedSpan s(tracer, "txn.abort", span.id(), req);
          (void)m.Abort(txn.get());
        }
        if (!st.IsRetryable()) break;
        ++out->retries;
      }
    }
    const uint64_t t1 = NowNs();
    if (!done) {
      ++out->failed;
      continue;
    }
    if (op.increment) {
      sh->committed[op.key]++;
    } else {
      const int64_t delta = read - sh->world->value[op.key];
      if (delta < before || delta > sh->issued[op.key].load()) ++out->wrong;
    }
    ++out->ops;
    out->latency_ns.push_back(t1 - t0);
    // Think time, so the clients do not fall into lock step with the
    // flusher's sync cycle (see kThinkMeanNs).
    SleepUntilNs(NowNs() + static_cast<uint64_t>(-std::log1p(-rng.NextDouble()) *
                                                 kThinkMeanNs));
  }
}

}  // namespace

PhaseResult RunRestartCold(const RunConfig& cfg) {
  PhaseResult result;
  const std::string world_dir = cfg.scratch + "/world";
  const std::string cycle_dir = cfg.scratch + "/cycle";
  std::vector<double> setup_s;
  World world;
  LayerTotals t;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world = World();
    std::string error;
    const uint64_t t0 = NowNs();
    if (!BuildWorld(world_dir, cfg.seed, &world, &error)) {
      result.Fail(error);
      return result;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    t.checkpoint_write_ms.push_back(world.checkpoint_ms);
  }

  auto shared = std::make_unique<CycleShared>();
  CycleShared& sh = *shared;
  sh.world = &world;
  sh.tracer = cfg.tracer;
  sh.seed = cfg.seed;
  WindowedLatency latency;
  uint64_t cycle_ns = 0;
  uint64_t cycle_cpu_ns = 0;
  std::vector<double> cycle_rate;    // ops per second of each cycle
  std::vector<double> cycle_cpu_us;  // CPU us per op of each cycle
  uint64_t ops = 0;
  const uint64_t phase_end = NowNs() + static_cast<uint64_t>(cfg.seconds * 1e9);
  ccr::RestartSummary summary;
  for (uint64_t cycle = 0; cycle == 0 || NowNs() < phase_end; ++cycle) {
    RemoveTree(cycle_dir);
    if (!CopyDir(world_dir, cycle_dir)) {
      result.Fail("copying the durable directory failed");
      return result;
    }
    if (cfg.tracer != nullptr) {
      ccr::SegmentScanReport report;
      const uint64_t s0 = NowNs();
      const ccr::Status scanned = ccr::ForEachSegmentedEntry(
          cycle_dir, world.anchor,
          [](ccr::Lsn, ccr::Journal::Entry&&) { return ccr::Status::OK(); },
          &report);
      t.journal_scan_ms.push_back(static_cast<double>(NowNs() - s0) / 1e6);
      if (!scanned.ok()) result.Fail("journal scan: " + scanned.ToString());
    }
    for (uint32_t k = 0; k < kRestartKeys; ++k) {
      sh.issued[k].store(0);
      sh.committed[k].store(0);
    }
    sh.cycle = cycle;

    // --- The measured cycle: restart, then serve. ---
    auto e = std::make_unique<Engine>();
    const uint64_t cpu0 = ProcessCpuNs();
    const uint64_t t0 = NowNs();
    auto store = ccr::LogStructuredStore::Open(cycle_dir);
    const uint64_t t_open = NowNs();
    if (!store.ok()) {
      result.Fail("store open: " + store.status().ToString());
      return result;
    }
    e->store = std::move(*store);
    e->device_store =
        std::make_unique<DeviceStore>(e->store.get(), kDeviceSyncNs);
    e->device_store->set_tracer(cfg.tracer);
    ccr::TxnManagerOptions options;
    options.record_history = false;
    options.evict_high_watermark = kResidentCap;
    e->manager = std::make_unique<ccr::TxnManager>(options);
    RegisterCounterFactory(e->manager.get());
    e->manager->set_object_store(e->device_store.get());
    e->manager->set_lifecycle_journal(&e->journal);
    ccr::RestartOptions restart;
    restart.replay_threads = kReplayThreads;
    restart.lazy_store_install = true;
    const uint64_t t_recover = NowNs();
    auto restarted = e->manager->RestartFromDir(cycle_dir, restart);
    const uint64_t t_recovered = NowNs();
    if (!restarted.ok()) {
      result.Fail("restart: " + restarted.status().ToString());
      return result;
    }
    summary = *restarted;
    auto sink = ccr::SegmentedFileSink::Open(cycle_dir, summary.high_lsn + 1);
    if (!sink.ok()) {
      result.Fail("journal reopen: " + sink.status().ToString());
      return result;
    }
    e->sink = std::move(*sink);
    e->device = std::make_unique<DeviceSink>(e->sink.get(), kDeviceSyncNs);
    e->device->set_tracer(cfg.tracer);
    e->writer = std::make_unique<ccr::JournalWriter>(e->device.get());
    ccr::GroupCommitOptions gc_options;
    gc_options.first_lsn = summary.high_lsn + 1;
    e->pipeline =
        std::make_unique<ccr::GroupCommitPipeline>(e->writer.get(), gc_options);
    e->journal.set_base_lsn(summary.high_lsn);
    e->journal.set_pipeline(e->pipeline.get());
    e->manager->set_commit_pipeline(e->pipeline.get());
    const ccr::ObjectStoreStats store0 = e->store->stats();

    sh.manager = e->manager.get();
    std::vector<ClientResult> clients(kClients);
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back(RunCycleClient, &sh, c, &clients[c]);
      }
      for (std::thread& th : threads) th.join();
    }
    const uint64_t t1 = NowNs();
    const uint64_t cpu1 = ProcessCpuNs();
    // --- End of the measured cycle. ---

    cycle_ns += t1 - t0;
    cycle_cpu_ns += cpu1 - cpu0;
    uint64_t cycle_ops = 0;
    for (const ClientResult& c : clients) {
      cycle_ops += c.ops;
      result.failed += c.failed + c.wrong;
      t.txn_retries += static_cast<double>(c.retries);
      for (uint64_t ns : c.latency_ns) latency.Record(cycle, ns);
      if (c.wrong > 0) result.Fail("a read disagreed with ground truth");
    }
    ops += cycle_ops;
    cycle_rate.push_back(static_cast<double>(cycle_ops) * 1e9 /
                         static_cast<double>(t1 - t0));
    cycle_cpu_us.push_back(Ratio(static_cast<double>(cpu1 - cpu0) / 1e3,
                                 static_cast<double>(cycle_ops)));
    result.attempted += kClients * kOpsPerClient;

    // Restart gates: the summary matches set-up.
    if (summary.checkpoint_anchor != world.anchor ||
        summary.high_lsn != world.high_lsn ||
        summary.tail_records != kTailIncs) {
      result.Fail("restart summary: anchor " +
                  std::to_string(summary.checkpoint_anchor) + " high " +
                  std::to_string(summary.high_lsn) + " tail " +
                  std::to_string(summary.tail_records));
    }
    // Every acked increment of the cycle is visible.
    for (uint32_t k = 0; k < kRestartKeys; ++k) {
      if (sh.issued[k].load() == 0) continue;
      const std::shared_ptr<ccr::Transaction> txn = e->manager->Begin();
      auto v = e->manager->Execute(txn.get(), ReadInv(CounterName(k)));
      if (!v.ok() || !e->manager->Commit(txn.get()).ok()) {
        result.Fail("verification read failed");
        break;
      }
      if (v->AsInt() != world.value[k] + sh.committed[k].load()) {
        result.Fail(CounterName(k) + " lost an acknowledged increment");
        break;
      }
    }

    if (cfg.tracer != nullptr) {
      const ccr::ObjectStoreStats store1 = e->store->stats();
      const ccr::GroupCommitStats gc = e->pipeline->stats();
      t.recover_ms.push_back(static_cast<double>(t_recovered - t_recover) /
                             1e6);
      t.store_open_ms.push_back(static_cast<double>(t_open - t0) / 1e6);
      t.gc_records += static_cast<double>(gc.records_flushed);
      t.gc_syncs += static_cast<double>(gc.syncs);
      t.journal_bytes += static_cast<double>(e->device->bytes());
      t.store_bytes_written +=
          static_cast<double>(store1.bytes_written - store0.bytes_written);
      t.store_compactions +=
          static_cast<double>(store1.compactions - store0.compactions);
      t.store_dead_share.push_back(
          Ratio(static_cast<double>(store1.dead_bytes),
                static_cast<double>(DirBytes(cycle_dir, "store."))));
      t.evictions += static_cast<double>(e->device_store->buffered_puts());
      t.fault_ins += static_cast<double>(e->device_store->get_hits());
      t.txn_kills += static_cast<double>(e->manager->stats().kills);
      t.tail_records = static_cast<double>(summary.tail_records);
      t.installed = static_cast<double>(summary.checkpoint_objects);
      t.deferred = static_cast<double>(summary.store_deferred);
      t.AddObjects(e->manager.get());
    }
    e.reset();
  }
  RemoveTree(cycle_dir);
  const double rss_mb = PeakRssMb();

  const WindowedLatency::Summary lat = latency.Summarize();
  if (!lat.ok) result.Fail("too few operations for a p99 window");
  const double wall_s = static_cast<double>(cycle_ns) / 1e9;
  SetEndToEnd(&result, Median(setup_s), rss_mb, Median(cycle_rate),
              lat.p50_us, lat.p99_us, Median(cycle_cpu_us));
  result.notes.push_back("set-up seconds: " + JoinValues(setup_s));
  result.notes.push_back(
      "restart_cold: " + std::to_string(ops) + " ops over " +
      std::to_string(wall_s) + " s of cycles, restart installed " +
      std::to_string(summary.checkpoint_objects) + " deferred " +
      std::to_string(summary.store_deferred) + ", latency windows " +
      std::to_string(lat.windows) + " (min " +
      std::to_string(lat.min_window_samples) + " samples), " +
      std::to_string(lat.samples) + " samples");
  if (cfg.tracer != nullptr) {
    t.wall_s = wall_s;
    t.cpu_s = static_cast<double>(cycle_cpu_ns) / 1e9;
    t.ops = static_cast<double>(ops);
    t.txn_logical = static_cast<double>(ops);
    EmitLayerMetrics(t, cfg.tracer->Collect(), &result);
  }
  RemoveTree(world_dir);
  return result;
}

}  // namespace perfbench
