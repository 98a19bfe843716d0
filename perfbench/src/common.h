// Copyright 2026 The ccr Authors.
//
// Measurement plumbing shared by the benchmark's workloads: clocks, a
// fixed-size latency histogram with the windowed-median rule, an in-memory
// span tracer, the modelled device (a ByteSink decorator and an ObjectStore
// decorator), process counters, and the result line.
//
// Everything here observes the engine from outside: timers wrap calls into
// public functions, the decorators wrap public interfaces, and the rest are
// before/after deltas of public stats structs.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "store/object_store.h"
#include "txn/journal_io.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

// CLOCK_MONOTONIC in nanoseconds.
uint64_t NowNs();
// CLOCK_PROCESS_CPUTIME_ID in nanoseconds (all threads of the process).
uint64_t ProcessCpuNs();
// Sets this thread's timer slack to 1 ns, so absolute sleeps wake within a
// few microseconds of their deadline instead of the default 50 us.
void UseFineTimerSlack();
// Sleeps until NowNs() >= deadline_ns (absolute, restarted on EINTR).
void SleepUntilNs(uint64_t deadline_ns);

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

// Log-linear histogram of nanosecond values with a fixed footprint: values
// below 256 ns have their own bucket, larger values share buckets 1/256 of
// their power of two wide (0.4%). Percentiles are nearest-rank over the
// buckets; within a shared bucket the rank is placed by spreading the
// bucket's samples evenly over its width, and a value below 256 ns is exact.
class Histogram {
 public:
  static constexpr int kSubBits = 8;
  static constexpr uint64_t kSub = 1ull << kSubBits;
  // Powers of two up to 2^40 ns (about 18 minutes); larger values clamp.
  static constexpr int kMaxBits = 40;
  static constexpr size_t kBuckets = kSub + (kMaxBits - kSubBits) * kSub;

  Histogram() : counts_(kBuckets, 0) {}

  void Record(uint64_t ns);
  void Merge(const Histogram& other);
  void Clear();
  uint64_t count() const { return count_; }

  // True when at least `min_beyond` samples rank above the p-th percentile
  // (the rule that a reported percentile has that many samples past it).
  bool Supports(double p, uint64_t min_beyond = 10) const;
  // Nearest-rank p-th percentile (p in (0, 100]) in nanoseconds; 0 if empty.
  double PercentileNs(double p) const;

  static size_t BucketOf(uint64_t ns);
  static uint64_t BucketLow(size_t index);
  static uint64_t BucketWidth(size_t index);

 private:
  std::vector<uint32_t> counts_;
  uint64_t count_ = 0;
};

// Latencies split into windows. A window reports only if it holds enough
// samples for its p99 to have 10 samples beyond it; short windows are
// folded into their successor (and a short last window into the one
// before). The run's figure is the median over windows of each window's
// percentile, so a host stall moves one window, not the run.
class WindowedLatency {
 public:
  void Record(size_t window, uint64_t ns);
  void Merge(const WindowedLatency& other);

  struct Summary {
    bool ok = false;        // at least one window met the rule
    double p50_us = 0;      // median over windows of the window p50
    double p99_us = 0;      // median over windows of the window p99
    size_t windows = 0;
    uint64_t samples = 0;
    uint64_t min_window_samples = 0;
  };
  Summary Summarize() const;

 private:
  std::vector<std::unique_ptr<Histogram>> windows_;
};

// Median of `v` (mean of the middle pair for even sizes); 0 if empty.
double Median(std::vector<double> v);

// "a b c" with each value printed to 4 significant digits.
std::string JoinValues(const std::vector<double>& v);

// Samples a completed-operations counter and the process CPU clock at every
// window boundary on its own thread, so throughput and CPU per operation
// can be reported as medians over windows, like the latencies.
class WindowSampler {
 public:
  // Starts sampling `ops` every window_ns from start_ns on.
  WindowSampler(const std::atomic<uint64_t>* ops, uint64_t start_ns,
                uint64_t window_ns);
  // Stops and joins the sampler (also done by the destructor).
  void Stop();
  ~WindowSampler() { Stop(); }
  WindowSampler(const WindowSampler&) = delete;
  WindowSampler& operator=(const WindowSampler&) = delete;

  // Median over full windows of ops per second.
  double MedianOpsPerSecond() const;
  // Median over full windows of CPU microseconds per op.
  double MedianCpuUsPerOp() const;

 private:
  struct Sample {
    uint64_t ns = 0;
    uint64_t cpu_ns = 0;
    uint64_t ops = 0;
  };
  void Loop();

  const std::atomic<uint64_t>* const ops_;
  const uint64_t start_ns_;
  const uint64_t window_ns_;
  std::atomic<bool> stop_{false};
  std::vector<Sample> samples_;  // written by the thread until Stop joins
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

// One span: a named interval, the span that caused it (0: none), and the
// request it belongs to.
struct Span {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
};

// Spans kept in memory, one buffer per recording thread, written out when
// the run ends. Requests are sampled 1 in `every` (Sampled); layer spans
// recorded by the decorators are kept for every call.
class Tracer {
 public:
  explicit Tracer(uint64_t every)
      : every_(every == 0 ? 1 : every), generation_(NextGeneration()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool Sampled(uint64_t request) const { return request % every_ == 0; }

  // A fresh span id (never 0).
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Records a finished span on the calling thread's buffer.
  void Record(const char* name, uint64_t start_ns, uint64_t end_ns,
              uint64_t id, uint64_t parent, uint64_t request);

  // Every span recorded so far (call after the recording threads stopped).
  std::vector<Span> Collect() const;
  uint64_t dropped() const { return dropped_.load(); }

  // Durations in nanoseconds of every span named `name`.
  static std::vector<uint64_t> Durations(const std::vector<Span>& spans,
                                         std::string_view name);
  // Self time of every span named `name`: its duration minus the part of
  // its interval covered by its child spans.
  static std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans,
                                         std::string_view name);
  // Writes the spans as JSON lines; false on I/O error.
  static bool WriteJsonl(const std::vector<Span>& spans,
                         const std::string& path);

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer* LocalBuffer();

  static constexpr size_t kMaxSpansPerThread = 1 << 20;

  static uint64_t NextGeneration() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  const uint64_t every_;
  const uint64_t generation_;  // tags this tracer's thread-local buffers
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;  // guards buffers_ (registration and Collect)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Records [construction, destruction) as one span when `tracer` is set.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
             uint64_t request)
      : tracer_(tracer), name_(name), parent_(parent), request_(request) {
    if (tracer_ != nullptr) {
      id_ = tracer_->NewId();
      start_ = NowNs();
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Record(name_, start_, NowNs(), id_, parent_, request_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* const tracer_;
  const char* const name_;
  const uint64_t parent_;
  const uint64_t request_;
  uint64_t id_ = 0;
  uint64_t start_ = 0;
};

// Percentile (nearest rank) of nanosecond samples, in microseconds.
double PercentileUs(std::vector<uint64_t> ns, double p);

// ---------------------------------------------------------------------------
// The modelled device
// ---------------------------------------------------------------------------

// The device time every durability barrier takes.
inline constexpr uint64_t kDeviceSyncNs = 100'000;

// ByteSink decorator: passes every Append through to `inner` unchanged and
// makes every Sync take the fixed device time. The inner sink's own Sync is
// never called, so no gated timing depends on the real disk; the bytes
// still reach the inner file and are flushed when the caller closes it.
class DeviceSink : public ccr::ByteSink {
 public:
  DeviceSink(ccr::ByteSink* inner, uint64_t sync_ns)
      : inner_(inner), sync_ns_(sync_ns) {}

  // Starts (non-null) or stops recording "gc.append" / "gc.sync" spans.
  void set_tracer(Tracer* tracer) { tracer_.store(tracer); }

  ccr::Status Append(std::string_view bytes) override;
  ccr::Status Sync() override;

  uint64_t appends() const { return appends_.load(); }
  uint64_t bytes() const { return bytes_.load(); }
  uint64_t syncs() const { return syncs_.load(); }

 private:
  ccr::ByteSink* const inner_;
  const uint64_t sync_ns_;
  std::atomic<Tracer*> tracer_{nullptr};
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> syncs_{0};
};

// ObjectStore decorator with the same device model: every batch is handed
// to `inner` buffered, and a batch the caller asked to be durable then
// waits the fixed device time. Times Get and ApplyBatch, and counts the
// buffered (eviction) puts and the Gets that found a key (fault-ins).
class DeviceStore : public ccr::ObjectStore {
 public:
  DeviceStore(ccr::ObjectStore* inner, uint64_t sync_ns)
      : inner_(inner), sync_ns_(sync_ns) {}

  // Starts (non-null) or stops recording "store.get" / "store.batch" spans.
  void set_tracer(Tracer* tracer) { tracer_.store(tracer); }

  ccr::Status ApplyBatch(const ccr::StoreWriteBatch& batch,
                         Durability durability) override;
  ccr::StatusOr<std::string> Get(const std::string& key) override;
  ccr::Status Scan(const std::function<ccr::Status(
                       const std::string&, const std::string&)>& fn) override;
  ccr::ObjectStoreStats stats() const override { return inner_->stats(); }

  uint64_t buffered_puts() const { return buffered_puts_.load(); }
  uint64_t get_hits() const { return get_hits_.load(); }

 private:
  ccr::ObjectStore* const inner_;
  const uint64_t sync_ns_;
  std::atomic<Tracer*> tracer_{nullptr};
  std::atomic<uint64_t> buffered_puts_{0};
  std::atomic<uint64_t> get_hits_{0};
};

// ---------------------------------------------------------------------------
// Process counters
// ---------------------------------------------------------------------------

// Peak resident set size (VmHWM) in MB.
double PeakRssMb();
// Resets the peak to the current RSS (so a second phase reports its own).
void ResetPeakRss();

// Removes `path` and everything below it; ignores a missing path.
void RemoveTree(const std::string& path);
// Copies the regular files of `from` into a new directory `to`.
bool CopyDir(const std::string& from, const std::string& to);
// Total bytes of the regular files in `dir` whose name starts with `prefix`.
uint64_t DirBytes(const std::string& dir, std::string_view prefix);

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one measured phase of a workload produced.
struct PhaseResult {
  bool correct = true;
  std::vector<std::string> errors;  // correctness gate failures
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;   // the six gated metrics
  std::vector<Metric> per_layer;    // layer metrics (traced phase only)
  std::vector<std::string> notes;   // human-readable lines for stdout

  void Fail(std::string message) {
    correct = false;
    errors.push_back(std::move(message));
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

// The names and units of the six end-to-end metrics, in report order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

// Appends the six end-to-end metrics to `r` in report order.
void SetEndToEnd(PhaseResult* r, double setup_s, double rss_mb,
                 double ops_per_s, double p50_us, double p99_us,
                 double cpu_us_per_op);

// Options every workload receives.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  Tracer* tracer = nullptr;  // non-null: the traced phase
  std::string scratch;       // a private directory for the workload's files
};

// Formats the result line (one JSON object).
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

// Ratio that reads 0 when the denominator is 0.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
