// Copyright 2026 The ccr Authors.
//
// Tests of the benchmark's own machinery: the modelled device, the seeded
// generators, the histogram's percentile rule, and span self time.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common.h"
#include "gen.h"
#include "store/mem_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(DeviceSinkTest, PassesBytesThroughAndDelaysSync) {
  ccr::MemorySink inner;
  DeviceSink device(&inner, kDeviceSyncNs);
  ASSERT_TRUE(device.Append("abc").ok());
  ASSERT_TRUE(device.Append(std::string("\0xyz\n", 5)).ok());
  EXPECT_EQ(inner.image(), std::string("abc\0xyz\n", 8));
  EXPECT_EQ(device.appends(), 2u);
  EXPECT_EQ(device.bytes(), 8u);
  for (int i = 0; i < 20; ++i) {
    const uint64_t t0 = NowNs();
    ASSERT_TRUE(device.Sync().ok());
    const uint64_t took = NowNs() - t0;
    EXPECT_GE(took, kDeviceSyncNs);
    EXPECT_LT(took, 50 * kDeviceSyncNs);
  }
  EXPECT_EQ(device.syncs(), 20u);
  EXPECT_EQ(inner.image().size(), 8u);  // Sync adds no bytes
}

TEST(DeviceStoreTest, DurableBatchTakesDeviceTimeAndReadsBack) {
  ccr::MemObjectStore inner;
  DeviceStore store(&inner, kDeviceSyncNs);
  ccr::StoreWriteBatch batch;
  batch.Put("k1", "v1");
  batch.Put("k2", "v2");
  const uint64_t t0 = NowNs();
  ASSERT_TRUE(store.ApplyBatch(batch, ccr::ObjectStore::Durability::kSync).ok());
  EXPECT_GE(NowNs() - t0, kDeviceSyncNs);
  EXPECT_EQ(store.buffered_puts(), 0u);
  ccr::StoreWriteBatch evict;
  evict.Put("k3", "v3");
  ASSERT_TRUE(
      store.ApplyBatch(evict, ccr::ObjectStore::Durability::kBuffered).ok());
  EXPECT_EQ(store.buffered_puts(), 1u);
  auto v = store.Get("k2");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v2");
  EXPECT_FALSE(store.Get("missing").ok());
  EXPECT_EQ(store.get_hits(), 1u);
}

bool SameRequest(const ServeRequest& a, const ServeRequest& b) {
  if (a.due_ns != b.due_ns || a.kind != b.kind || a.nkeys != b.nkeys) {
    return false;
  }
  for (int i = 0; i < a.nkeys; ++i) {
    if (a.keys[i] != b.keys[i]) return false;
  }
  return true;
}

TEST(GeneratorTest, SameSeedSameScheduleKeysAndMix) {
  const auto a = MakeServeSchedule(7, 8000, 1.0);
  const auto b = MakeServeSchedule(7, 8000, 1.0);
  const auto c = MakeServeSchedule(8, 8000, 1.0);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ASSERT_TRUE(SameRequest(a[i], b[i]));
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = !SameRequest(a[i], c[i]);
  }
  EXPECT_TRUE(differs);

  // Poisson at 8000/s over 1 s, and the 80/15/5 mix.
  EXPECT_NEAR(static_cast<double>(a.size()), 8000.0, 400.0);
  size_t kinds[3] = {0, 0, 0};
  for (size_t i = 0; i < a.size(); ++i) {
    ++kinds[a[i].kind];
    if (i > 0) {
      EXPECT_GE(a[i].due_ns, a[i - 1].due_ns);
    }
    for (int x = 0; x < a[i].nkeys; ++x) {
      EXPECT_LT(a[i].keys[x], kServeKeys);
      for (int y = 0; y < x; ++y) EXPECT_NE(a[i].keys[x], a[i].keys[y]);
    }
  }
  const double n = static_cast<double>(a.size());
  EXPECT_NEAR(kinds[ServeRequest::kInc1] / n, 0.80, 0.03);
  EXPECT_NEAR(kinds[ServeRequest::kInc4] / n, 0.15, 0.03);
  EXPECT_NEAR(kinds[ServeRequest::kRead4] / n, 0.05, 0.02);

  Rng r1(StreamSeed(3, 10));
  Rng r2(StreamSeed(3, 10));
  for (int i = 0; i < 1000; ++i) {
    const BankTxn x = NextBankTxn(&r1);
    const BankTxn y = NextBankTxn(&r2);
    ASSERT_EQ(x.kind, y.kind);
    ASSERT_EQ(x.from, y.from);
    ASSERT_EQ(x.to, y.to);
    ASSERT_EQ(x.amount, y.amount);
    // Transfers always cross the two recovery methods.
    EXPECT_NE(x.from < kUipAccounts, x.to < kUipAccounts);
    const RestartOp p = NextRestartOp(&r1);
    const RestartOp q = NextRestartOp(&r2);
    ASSERT_EQ(p.increment, q.increment);
    ASSERT_EQ(p.key, q.key);
  }
}

TEST(GeneratorTest, EngineReceivesOnlyTheGeneratedInputs) {
  const auto schedule = MakeServeSchedule(11, 20000, 0.02);
  ASSERT_FALSE(schedule.empty());
  std::vector<std::vector<ccr::BatchOp>> received;
  Histogram lag;
  RunOpenLoop(schedule, NowNs(),
              [&](size_t i) { received.push_back(ServeOps(schedule[i])); },
              &lag);
  EXPECT_EQ(lag.count(), schedule.size());
  const auto again = MakeServeSchedule(11, 20000, 0.02);
  ASSERT_EQ(received.size(), again.size());
  for (size_t i = 0; i < again.size(); ++i) {
    const std::vector<ccr::BatchOp> expect = ServeOps(again[i]);
    ASSERT_EQ(received[i].size(), expect.size());
    for (size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(received[i][j].object, expect[j].object);
      EXPECT_EQ(received[i][j].factory, expect[j].factory);
      EXPECT_TRUE(received[i][j].inv == expect[j].inv);
    }
  }
}

TEST(HistogramTest, NearestRankPercentiles) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.PercentileNs(50), 50);
  EXPECT_EQ(h.PercentileNs(99), 99);
  EXPECT_EQ(h.PercentileNs(100), 100);
  EXPECT_EQ(h.PercentileNs(1), 1);
  // Large values land within the bucket resolution (1/256).
  Histogram big;
  for (uint64_t v = 1; v <= 1000; ++v) big.Record(v * 1000);
  EXPECT_NEAR(big.PercentileNs(50), 500000.0, 500000.0 / 256);
  EXPECT_NEAR(big.PercentileNs(99), 990000.0, 990000.0 / 256);
  for (uint64_t v : {256ull, 1000ull, 123456ull, 1ull << 35}) {
    const size_t b = Histogram::BucketOf(v);
    EXPECT_LE(Histogram::BucketLow(b), v);
    EXPECT_LT(v, Histogram::BucketLow(b) + Histogram::BucketWidth(b));
  }
}

TEST(HistogramTest, TenSamplesBeyondP99Rule) {
  Histogram h;
  for (int i = 0; i < 999; ++i) h.Record(100);
  EXPECT_FALSE(h.Supports(99));  // rank 990 of 999: 9 beyond
  h.Record(100);
  EXPECT_TRUE(h.Supports(99));   // rank 990 of 1000: 10 beyond

  // Windows of 500 samples are too short alone and fold pairwise; the short
  // last window folds into the one before it.
  WindowedLatency w;
  for (size_t win = 0; win < 5; ++win) {
    for (int i = 0; i < 500; ++i) w.Record(win, 1000 * (win + 1));
  }
  const WindowedLatency::Summary s = w.Summarize();
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(s.windows, 2u);
  EXPECT_EQ(s.samples, 2500u);
  EXPECT_EQ(s.min_window_samples, 1000u);

  WindowedLatency few;
  for (int i = 0; i < 999; ++i) few.Record(0, 5);
  EXPECT_FALSE(few.Summarize().ok);
}

TEST(TracerTest, SelfTimeSubtractsCoveredChildIntervals) {
  std::vector<Span> spans = {
      {"txn", 0, 100, 1, 0, 7},        {"txn.begin", 10, 30, 2, 1, 7},
      {"txn.execute", 20, 40, 3, 1, 7}, {"txn.commit", 50, 60, 4, 1, 7},
      {"txn", 200, 250, 5, 0, 8},
  };
  const std::vector<uint64_t> self = Tracer::SelfTimes(spans, "txn");
  ASSERT_EQ(self.size(), 2u);
  EXPECT_EQ(self[0], 60u);  // 100 - (30 covered by [10,40]) - 10
  EXPECT_EQ(self[1], 50u);
  EXPECT_EQ(Tracer::Durations(spans, "txn.begin"), std::vector<uint64_t>{20});
}

}  // namespace
}  // namespace perfbench
