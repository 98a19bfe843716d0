// Copyright 2026 The ccr Authors.
//
// serve_zipf: the serving front end over group commit, open loop. One
// generator thread offers Poisson arrivals at kServeRate to a ServeFrontend
// (default options) whose engine commits through a kGroup
// GroupCommitPipeline (default options) into a FileSink journal behind the
// modelled device. Latency runs from a request's intended arrival to its
// durable ack.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adt/counter.h"
#include "core/conflict_relation.h"
#include "serve/frontend.h"
#include "txn/group_commit.h"
#include "txn/journal.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
constexpr size_t kLoadBatch = 100;
constexpr uint64_t kWindowNs = 62'500'000;

ccr::TxnManagerOptions ManagerOptions() {
  ccr::TxnManagerOptions options;
  options.record_history = false;
  return options;
}

// One engine. Members are declared in dependency order so destruction runs
// front end, manager, pipeline, writer, sinks.
struct ServeEngine {
  std::unique_ptr<ccr::FileSink> file;
  std::unique_ptr<DeviceSink> device;
  std::unique_ptr<ccr::JournalWriter> writer;
  std::unique_ptr<ccr::GroupCommitPipeline> pipeline;
  ccr::Journal journal;
  std::unique_ptr<ccr::TxnManager> manager;
  std::unique_ptr<ccr::ServeFrontend> frontend;
  std::vector<int64_t> initial;  // loaded value of each counter
  int64_t loaded_total = 0;

  ~ServeEngine() {
    if (frontend) frontend->Stop();
    if (pipeline) pipeline->Drain();
  }
};

// Builds the engine and loads the dataset: kServeKeys UIP+NRBC counters,
// each set to a seeded initial value through journaled batch commits.
// Returns false (with `error`) on any engine error.
bool SetUp(const std::string& path, uint64_t seed, ServeEngine* e,
           std::string* error) {
  std::remove(path.c_str());
  auto file = ccr::FileSink::Open(path);
  if (!file.ok()) {
    *error = "journal open: " + file.status().ToString();
    return false;
  }
  e->file = std::move(*file);
  e->device = std::make_unique<DeviceSink>(e->file.get(), kDeviceSyncNs);
  e->writer = std::make_unique<ccr::JournalWriter>(e->device.get());
  e->pipeline = std::make_unique<ccr::GroupCommitPipeline>(e->writer.get());
  e->journal.set_pipeline(e->pipeline.get());
  e->manager = std::make_unique<ccr::TxnManager>(ManagerOptions());
  e->manager->set_commit_pipeline(e->pipeline.get());
  for (uint32_t k = 0; k < kServeKeys; ++k) {
    auto ctr = std::make_shared<ccr::Counter>(CounterName(k));
    ccr::AtomicObject* obj = e->manager->AddObject(
        ctr->object_name(), ctr, ccr::MakeNrbcConflict(ctr),
        std::make_unique<ccr::UipRecovery>(ctr));
    obj->recovery().set_journal(&e->journal);
  }
  Rng rng(StreamSeed(seed, 3));
  e->initial.resize(kServeKeys);
  for (uint32_t base = 0; base < kServeKeys; base += kLoadBatch) {
    std::vector<ccr::BatchOp> ops;
    for (uint32_t k = base; k < base + kLoadBatch && k < kServeKeys; ++k) {
      const int64_t v = 1 + static_cast<int64_t>(rng.Uniform(100));
      e->initial[k] = v;
      e->loaded_total += v;
      std::string id = CounterName(k);
      ccr::Invocation inv(id, ccr::Counter::kInc, "inc", {ccr::Value(v)});
      ops.push_back(ccr::BatchOp{std::move(id), "", std::move(inv)});
    }
    const std::shared_ptr<ccr::Transaction> txn = e->manager->Begin();
    auto done = e->manager->ExecuteBatch(txn.get(), ops);
    if (!done.ok()) {
      *error = "load batch: " + done.status().ToString();
      return false;
    }
    auto lsn = e->manager->CommitAsync(txn.get());
    if (!lsn.ok()) {
      *error = "load commit: " + lsn.status().ToString();
      return false;
    }
  }
  e->pipeline->Drain();
  e->frontend = std::make_unique<ccr::ServeFrontend>(e->manager.get());
  return true;
}

// Reads every counter through the engine (batches of read ops).
bool ReadAll(ccr::TxnManager* manager, std::vector<int64_t>* out,
             std::string* error) {
  out->assign(kServeKeys, 0);
  for (uint32_t base = 0; base < kServeKeys; base += 1000) {
    std::vector<ccr::BatchOp> ops;
    for (uint32_t k = base; k < base + 1000 && k < kServeKeys; ++k) {
      std::string id = CounterName(k);
      ccr::Invocation inv(id, ccr::Counter::kRead, "read", {});
      ops.push_back(ccr::BatchOp{std::move(id), "", std::move(inv)});
    }
    const std::shared_ptr<ccr::Transaction> txn = manager->Begin();
    auto values = manager->ExecuteBatch(txn.get(), ops);
    if (!values.ok()) {
      *error = "final read: " + values.status().ToString();
      return false;
    }
    if (!manager->Commit(txn.get()).ok()) {
      *error = "final read commit failed";
      return false;
    }
    for (size_t i = 0; i < values->size(); ++i) {
      (*out)[base + i] = (*values)[i].AsInt();
    }
  }
  return true;
}

// State the completions share with the generator. Completions run on the
// batcher and flusher threads.
struct Run {
  const std::vector<ServeRequest>* schedule = nullptr;
  const std::vector<int64_t>* initial = nullptr;
  uint64_t start_ns = 0;
  Tracer* tracer = nullptr;
  std::vector<std::atomic<int64_t>> issued =
      std::vector<std::atomic<int64_t>>(kServeKeys);  // increments sent
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> wrong{0};
  std::atomic<int64_t> acked_incs{0};
  std::atomic<uint64_t> last_ack_ns{0};
  std::mutex mu;  // guards latency
  WindowedLatency latency;
};

void Complete(Run* run, size_t i, const ccr::Status& status,
              const std::vector<ccr::Value>& values) {
  const uint64_t now = NowNs();
  const ServeRequest& r = (*run->schedule)[i];
  const uint64_t due = run->start_ns + r.due_ns;
  if (!status.ok()) {
    run->errors.fetch_add(1);
    return;
  }
  if (r.kind == ServeRequest::kRead4) {
    for (size_t j = 0; j < values.size() && j < r.nkeys; ++j) {
      const uint32_t k = r.keys[j];
      const int64_t v = values[j].AsInt() - (*run->initial)[k];
      if (v < 0 || v > run->issued[k].load()) run->wrong.fetch_add(1);
    }
    if (values.size() != r.nkeys) run->wrong.fetch_add(1);
  } else {
    run->acked_incs.fetch_add(r.nkeys);
  }
  {
    std::lock_guard<std::mutex> lock(run->mu);
    run->latency.Record((now - run->start_ns) / kWindowNs, now - due);
  }
  if (run->tracer != nullptr && run->tracer->Sampled(i)) {
    run->tracer->Record("serve.request", due, now, run->tracer->NewId(), 0, i);
  }
  run->ok.fetch_add(1);
  uint64_t prev = run->last_ack_ns.load();
  while (prev < now && !run->last_ack_ns.compare_exchange_weak(prev, now)) {
  }
}

}  // namespace

PhaseResult RunServeZipf(const RunConfig& cfg) {
  PhaseResult result;
  const std::vector<ServeRequest> schedule =
      MakeServeSchedule(cfg.seed, kServeRate, cfg.seconds);
  const std::string path = cfg.scratch + "/serve.journal";

  // Set-up, timed kSetupReps times; the last engine serves the phase.
  std::vector<double> setup_s;
  std::unique_ptr<ServeEngine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    engine = std::make_unique<ServeEngine>();
    std::string error;
    const uint64_t t0 = NowNs();
    if (!SetUp(path, cfg.seed, engine.get(), &error)) {
      result.Fail(error);
      return result;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  ServeEngine& e = *engine;
  e.device->set_tracer(cfg.tracer);

  Run run;
  run.schedule = &schedule;
  run.initial = &e.initial;
  run.tracer = cfg.tracer;
  const ccr::ServeStats serve0 = e.frontend->stats();
  const ccr::GroupCommitStats gc0 = e.pipeline->stats();
  const ccr::ManagerStats mgr0 = e.manager->stats();
  const uint64_t bytes0 = e.device->bytes();
  Histogram lag;
  uint64_t shed = 0;

  const uint64_t cpu0 = ProcessCpuNs();
  run.start_ns = NowNs() + 1'000'000;  // first arrival 1 ms from now
  WindowSampler sampler(&run.ok, run.start_ns, kWindowNs);
  RunOpenLoop(
      schedule, run.start_ns,
      [&](size_t i) {
        const ServeRequest& r = schedule[i];
        if (r.kind != ServeRequest::kRead4) {
          for (uint8_t j = 0; j < r.nkeys; ++j) run.issued[r.keys[j]]++;
        }
        Tracer* tracer = cfg.tracer != nullptr && cfg.tracer->Sampled(i)
                             ? cfg.tracer
                             : nullptr;
        ProbeDirectory(e.manager.get(), tracer, CounterName(r.keys[0]));
        ScopedSpan span(tracer, "serve.submit", 0, i);
        Run* run_ptr = &run;
        const ccr::Status admitted = e.frontend->SubmitAsync(
            ServeOps(r), [run_ptr, i](const ccr::Status& s,
                                      std::vector<ccr::Value> values) {
              Complete(run_ptr, i, s, values);
            });
        if (!admitted.ok()) ++shed;
      },
      &lag);
  sampler.Stop();
  e.frontend->Drain();
  e.pipeline->Drain();
  const uint64_t cpu1 = ProcessCpuNs();
  const uint64_t end_ns = std::max(run.last_ack_ns.load(), run.start_ns + 1);
  const double wall_s = static_cast<double>(end_ns - run.start_ns) / 1e9;
  const double rss_mb = PeakRssMb();

  const uint64_t ok = run.ok.load();
  const WindowedLatency::Summary lat = run.latency.Summarize();
  result.attempted = schedule.size();
  result.failed = shed + run.errors.load() + run.wrong.load();
  if (!lat.ok) result.Fail("too few acks for a p99 window");
  SetEndToEnd(&result, Median(setup_s), rss_mb, sampler.MedianOpsPerSecond(),
              lat.p50_us, lat.p99_us, sampler.MedianCpuUsPerOp());
  result.notes.push_back("set-up seconds: " + JoinValues(setup_s));
  result.notes.push_back(
      "serve_zipf: offered " + std::to_string(kServeRate) + "/s, " +
      std::to_string(schedule.size()) + " requests, " + std::to_string(ok) +
      " acked, latency windows " + std::to_string(lat.windows) +
      " (min " + std::to_string(lat.min_window_samples) + " samples), " +
      std::to_string(lat.samples) + " samples");

  // Layer accounting before the correctness reads touch the engine.
  const ccr::ServeStats serve1 = e.frontend->stats();
  const ccr::GroupCommitStats gc1 = e.pipeline->stats();
  const ccr::ManagerStats mgr1 = e.manager->stats();
  LayerTotals t;
  t.wall_s = wall_s;
  t.cpu_s = static_cast<double>(cpu1 - cpu0) / 1e9;
  t.ops = static_cast<double>(ok);
  t.serve_accepted = static_cast<double>(serve1.accepted - serve0.accepted);
  t.serve_txns = static_cast<double>(
      (serve1.coalesced_txns + serve1.solo_txns) -
      (serve0.coalesced_txns + serve0.solo_txns));
  t.serve_groups = static_cast<double>(serve1.groups - serve0.groups);
  t.serve_demoted =
      static_cast<double>(serve1.demoted_groups - serve0.demoted_groups);
  t.serve_queue_max = static_cast<double>(serve1.max_queue_depth);
  t.serve_shed = static_cast<double>(serve1.shed - serve0.shed);
  t.gen_lag_p99_us = lag.PercentileNs(99) / 1e3;
  t.gc_records =
      static_cast<double>(gc1.records_flushed - gc0.records_flushed);
  t.gc_syncs = static_cast<double>(gc1.syncs - gc0.syncs);
  t.journal_bytes = static_cast<double>(e.device->bytes() - bytes0);
  t.txn_logical = t.serve_accepted;
  t.txn_retries = static_cast<double>(serve1.retries - serve0.retries);
  t.txn_kills = static_cast<double>(mgr1.kills - mgr0.kills);
  if (cfg.tracer != nullptr) t.AddObjects(e.manager.get());

  // Correctness gates: every counter's final value, and the journal frames
  // scanned back with the engine's own reader, account for exactly the
  // acknowledged increments.
  const int64_t acked_incs = run.acked_incs.load();
  std::vector<int64_t> finals;
  std::string error;
  if (!ReadAll(e.manager.get(), &finals, &error)) {
    result.Fail(error);
  } else {
    int64_t sum = 0;
    for (uint32_t k = 0; k < kServeKeys; ++k) sum += finals[k] - e.initial[k];
    if (sum != acked_incs) {
      result.Fail("counter sums " + std::to_string(sum) + " != acked " +
                  std::to_string(acked_incs));
    }
  }
  e.frontend->Stop();
  e.pipeline->Drain();
  const ccr::Status closed = e.file->Close();
  if (!closed.ok()) result.Fail("journal close: " + closed.ToString());
  auto image = ccr::ReadFileImage(path);
  if (!image.ok()) {
    result.Fail("journal read: " + image.status().ToString());
  } else {
    ccr::RecoveryReport report;
    auto scanned = ccr::ScanJournalImage(*image, &report);
    if (!scanned.ok() || report.corrupt_tail) {
      result.Fail("journal scan failed");
    } else {
      int64_t journaled = 0;
      scanned->ForEachRecord([&](const ccr::Journal::CommitRecord& rec) {
        for (const ccr::Operation& op : rec.ops) {
          if (op.code() == ccr::Counter::kInc) {
            journaled += op.args()[0].AsInt();
          }
        }
      });
      if (journaled - e.loaded_total != acked_incs) {
        result.Fail("journaled increments " +
                    std::to_string(journaled - e.loaded_total) +
                    " != acked " + std::to_string(acked_incs));
      }
    }
  }
  if (run.wrong.load() > 0) {
    result.Fail(std::to_string(run.wrong.load()) + " wrong read results");
  }
  if (cfg.tracer != nullptr) {
    EmitLayerMetrics(t, cfg.tracer->Collect(), &result);
  }
  return result;
}

}  // namespace perfbench
