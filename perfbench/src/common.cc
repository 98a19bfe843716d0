// Copyright 2026 The ccr Authors.

#include "common.h"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

namespace {

uint64_t ReadClock(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

uint64_t NowNs() { return ReadClock(CLOCK_MONOTONIC); }

uint64_t ProcessCpuNs() { return ReadClock(CLOCK_PROCESS_CPUTIME_ID); }

void UseFineTimerSlack() {
  thread_local bool done = false;
  if (!done) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    done = true;
  }
}

void SleepUntilNs(uint64_t deadline_ns) {
  UseFineTimerSlack();
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

size_t Histogram::BucketOf(uint64_t ns) {
  if (ns < kSub) return static_cast<size_t>(ns);
  const int msb = 63 - __builtin_clzll(ns);
  if (msb >= kMaxBits) return kBuckets - 1;
  const int shift = msb - kSubBits;  // >= 0: ns >> shift lies in [kSub, 2kSub)
  return static_cast<size_t>(kSub + static_cast<uint64_t>(shift) * kSub +
                             ((ns >> shift) - kSub));
}

uint64_t Histogram::BucketLow(size_t index) {
  if (index < kSub) return index;
  const uint64_t row = (index - kSub) / kSub;
  const uint64_t offset = (index - kSub) % kSub;
  return (kSub + offset) << row;
}

uint64_t Histogram::BucketWidth(size_t index) {
  if (index < kSub) return 1;
  return 1ull << ((index - kSub) / kSub);
}

void Histogram::Record(uint64_t ns) {
  ++counts_[BucketOf(ns)];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

void Histogram::Clear() {
  std::fill(counts_.begin(), counts_.end(), 0u);
  count_ = 0;
}

namespace {

// 1-based nearest rank of the p-th percentile among n samples.
uint64_t NearestRank(double p, uint64_t n) {
  const double exact = p / 100.0 * static_cast<double>(n);
  uint64_t rank = static_cast<uint64_t>(std::ceil(exact - 1e-9));
  return std::clamp<uint64_t>(rank, 1, n);
}

}  // namespace

bool Histogram::Supports(double p, uint64_t min_beyond) const {
  if (count_ == 0) return false;
  return count_ - NearestRank(p, count_) >= min_beyond;
}

double Histogram::PercentileNs(double p) const {
  if (count_ == 0) return 0;
  const uint64_t rank = NearestRank(p, count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (seen + counts_[i] >= rank) {
      const uint64_t width = BucketWidth(i);
      if (width == 1) return static_cast<double>(BucketLow(i));
      // Spread the bucket's samples evenly over its width.
      const double within = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(counts_[i]);
      return static_cast<double>(BucketLow(i)) +
             within * static_cast<double>(width);
    }
    seen += counts_[i];
  }
  return static_cast<double>(BucketLow(kBuckets - 1));
}

void WindowedLatency::Record(size_t window, uint64_t ns) {
  if (window >= windows_.size()) windows_.resize(window + 1);
  if (!windows_[window]) windows_[window] = std::make_unique<Histogram>();
  windows_[window]->Record(ns);
}

void WindowedLatency::Merge(const WindowedLatency& other) {
  if (other.windows_.size() > windows_.size()) {
    windows_.resize(other.windows_.size());
  }
  for (size_t i = 0; i < other.windows_.size(); ++i) {
    if (!other.windows_[i]) continue;
    if (!windows_[i]) windows_[i] = std::make_unique<Histogram>();
    windows_[i]->Merge(*other.windows_[i]);
  }
}

WindowedLatency::Summary WindowedLatency::Summarize() const {
  std::vector<Histogram> closed;
  Histogram open;
  Summary s;
  for (const std::unique_ptr<Histogram>& w : windows_) {
    if (!w) continue;
    open.Merge(*w);
    s.samples += w->count();
    if (open.Supports(99.0)) {
      closed.push_back(open);
      open.Clear();
    }
  }
  if (open.count() > 0 && !closed.empty()) closed.back().Merge(open);
  if (closed.empty()) return s;
  std::vector<double> p50;
  std::vector<double> p99;
  s.min_window_samples = UINT64_MAX;
  for (const Histogram& h : closed) {
    p50.push_back(h.PercentileNs(50.0) / 1e3);
    p99.push_back(h.PercentileNs(99.0) / 1e3);
    s.min_window_samples = std::min(s.min_window_samples, h.count());
  }
  s.ok = true;
  s.windows = closed.size();
  s.p50_us = Median(p50);
  s.p99_us = Median(p99);
  return s;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

WindowSampler::WindowSampler(const std::atomic<uint64_t>* ops,
                             uint64_t start_ns, uint64_t window_ns)
    : ops_(ops), start_ns_(start_ns), window_ns_(window_ns) {
  thread_ = std::thread([this] { Loop(); });
}

void WindowSampler::Loop() {
  for (uint64_t k = 0;; ++k) {
    const uint64_t due = start_ns_ + k * window_ns_;
    // Sleep in short steps so Stop is honoured promptly.
    while (NowNs() < due && !stop_.load()) {
      SleepUntilNs(std::min(due, NowNs() + 20'000'000));
    }
    if (stop_.load()) return;
    samples_.push_back(Sample{NowNs(), ProcessCpuNs(), ops_->load()});
  }
}

void WindowSampler::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

double WindowSampler::MedianOpsPerSecond() const {
  std::vector<double> rates;
  for (size_t i = 1; i < samples_.size(); ++i) {
    const double dt =
        static_cast<double>(samples_[i].ns - samples_[i - 1].ns) / 1e9;
    rates.push_back(static_cast<double>(samples_[i].ops - samples_[i - 1].ops) /
                    dt);
  }
  return Median(rates);
}

double WindowSampler::MedianCpuUsPerOp() const {
  std::vector<double> cpu;
  for (size_t i = 1; i < samples_.size(); ++i) {
    const uint64_t ops = samples_[i].ops - samples_[i - 1].ops;
    if (ops == 0) continue;
    cpu.push_back(
        static_cast<double>(samples_[i].cpu_ns - samples_[i - 1].cpu_ns) /
        1e3 / static_cast<double>(ops));
  }
  return Median(cpu);
}

std::string JoinValues(const std::vector<double>& v) {
  std::string out;
  for (double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

Tracer::Buffer* Tracer::LocalBuffer() {
  // One slot per thread, tagged with the tracer that owns it: a thread that
  // outlives one tracer registers a fresh buffer with the next.
  thread_local uint64_t owner = 0;
  thread_local Buffer* buffer = nullptr;
  if (owner != generation_) {
    auto fresh = std::make_unique<Buffer>();
    fresh->spans.reserve(4096);
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(fresh));
    buffer = buffers_.back().get();
    owner = generation_;
  }
  return buffer;
}

void Tracer::Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                    uint64_t id, uint64_t parent, uint64_t request) {
  Buffer* buffer = LocalBuffer();
  if (buffer->spans.size() >= kMaxSpansPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->spans.push_back(Span{name, start_ns, end_ns, id, parent, request});
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const std::unique_ptr<Buffer>& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

std::vector<uint64_t> Tracer::Durations(const std::vector<Span>& spans,
                                        std::string_view name) {
  std::vector<uint64_t> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(s.end_ns - s.start_ns);
  }
  return out;
}

std::vector<uint64_t> Tracer::SelfTimes(const std::vector<Span>& spans,
                                        std::string_view name) {
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<uint64_t> out;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<uint64_t, uint64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      uint64_t cur_lo = 0;
      uint64_t cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::clamp(lo, s.start_ns, s.end_ns);
        hi = std::clamp(hi, s.start_ns, s.end_ns);
        if (!open || lo > cur_hi) {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    out.push_back(s.end_ns - s.start_ns - covered);
  }
  return out;
}

bool Tracer::WriteJsonl(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

double PercentileUs(std::vector<uint64_t> ns, double p) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  return static_cast<double>(ns[NearestRank(p, ns.size()) - 1]) / 1e3;
}

// ---------------------------------------------------------------------------
// The modelled device
// ---------------------------------------------------------------------------

ccr::Status DeviceSink::Append(std::string_view bytes) {
  Tracer* const tracer = tracer_.load();
  const uint64_t start = tracer != nullptr ? NowNs() : 0;
  ccr::Status s = inner_->Append(bytes);
  appends_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  if (tracer != nullptr) {
    tracer->Record("gc.append", start, NowNs(), tracer->NewId(), 0, 0);
  }
  return s;
}

ccr::Status DeviceSink::Sync() {
  const uint64_t start = NowNs();
  SleepUntilNs(start + sync_ns_);
  syncs_.fetch_add(1, std::memory_order_relaxed);
  if (Tracer* const tracer = tracer_.load(); tracer != nullptr) {
    tracer->Record("gc.sync", start, NowNs(), tracer->NewId(), 0, 0);
  }
  return ccr::Status::OK();
}

ccr::Status DeviceStore::ApplyBatch(const ccr::StoreWriteBatch& batch,
                                    Durability durability) {
  const uint64_t start = NowNs();
  ccr::Status s = inner_->ApplyBatch(batch, Durability::kBuffered);
  if (s.ok() && durability == Durability::kSync) {
    SleepUntilNs(NowNs() + sync_ns_);
  }
  if (durability == Durability::kBuffered) {
    uint64_t puts = 0;
    for (const ccr::StoreOp& op : batch.ops()) {
      if (op.kind == ccr::StoreOp::Kind::kPut) ++puts;
    }
    buffered_puts_.fetch_add(puts, std::memory_order_relaxed);
  }
  if (Tracer* const tracer = tracer_.load(); tracer != nullptr) {
    tracer->Record("store.batch", start, NowNs(), tracer->NewId(), 0, 0);
  }
  return s;
}

ccr::StatusOr<std::string> DeviceStore::Get(const std::string& key) {
  Tracer* const tracer = tracer_.load();
  const uint64_t start = tracer != nullptr ? NowNs() : 0;
  ccr::StatusOr<std::string> v = inner_->Get(key);
  if (v.ok()) get_hits_.fetch_add(1, std::memory_order_relaxed);
  if (tracer != nullptr) {
    tracer->Record("store.get", start, NowNs(), tracer->NewId(), 0, 0);
  }
  return v;
}

ccr::Status DeviceStore::Scan(
    const std::function<ccr::Status(const std::string&, const std::string&)>&
        fn) {
  return inner_->Scan(fn);
}

// ---------------------------------------------------------------------------
// Process counters and files
// ---------------------------------------------------------------------------

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

bool CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::create_directories(to, ec);
  if (ec) return false;
  for (const auto& entry : std::filesystem::directory_iterator(from, ec)) {
    if (!entry.is_regular_file()) continue;
    std::filesystem::copy_file(entry.path(),
                               std::filesystem::path(to) / entry.path().filename(),
                               ec);
    if (ec) return false;
  }
  return !ec;
}

uint64_t DirBytes(const std::string& dir, std::string_view prefix) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().filename().string().rfind(prefix, 0) != 0) continue;
    total += entry.file_size(ec);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},     {"rss_mb", "MB"}, {"ops_per_s", "1/s"},
      {"p50_us", "us"},     {"p99_us", "us"}, {"cpu_us_per_op", "us"},
  };
  return kMetrics;
}

void SetEndToEnd(PhaseResult* r, double setup_s, double rss_mb,
                 double ops_per_s, double p50_us, double p99_us,
                 double cpu_us_per_op) {
  const double values[] = {setup_s, rss_mb, ops_per_s,
                           p50_us,  p99_us, cpu_us_per_op};
  r->end_to_end.clear();
  for (size_t i = 0; i < EndToEndMetrics().size(); ++i) {
    r->end_to_end.push_back(
        {EndToEndMetrics()[i].first, values[i], EndToEndMetrics()[i].second});
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
