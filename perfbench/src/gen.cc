// Copyright 2026 The ccr Authors.

#include "gen.h"

#include <algorithm>
#include <cmath>

#include "adt/counter.h"

namespace perfbench {

namespace {

uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t& s : s_) s = SplitMix(&seed);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t n) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

Zipf::Zipf(uint64_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

uint64_t Zipf::Sample(Rng* rng) const {
  const double r = rng->NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), r);
  return std::min<uint64_t>(static_cast<uint64_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
}

std::vector<uint32_t> Permutation(uint64_t n, uint64_t seed) {
  std::vector<uint32_t> p(n);
  for (uint64_t i = 0; i < n; ++i) p[i] = static_cast<uint32_t>(i);
  Rng rng(seed);
  for (uint64_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.Uniform(i)]);
  return p;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed ^ (stream * 0xd1b54a32d192ed03ull);
  return SplitMix(&x);
}

// ---------------------------------------------------------------------------
// serve_zipf
// ---------------------------------------------------------------------------

std::vector<ServeRequest> MakeServeSchedule(uint64_t seed, double rate,
                                            double seconds) {
  const Zipf zipf(kServeKeys, kServeTheta);
  const std::vector<uint32_t> perm = Permutation(kServeKeys, StreamSeed(seed, 0));
  Rng rng(StreamSeed(seed, 1));
  std::vector<ServeRequest> out;
  out.reserve(static_cast<size_t>(rate * seconds * 1.05) + 16);
  const double horizon_ns = seconds * 1e9;
  double t = 0;
  while (true) {
    // Exponential gap: -ln(1-u)/rate.
    t += -std::log1p(-rng.NextDouble()) / rate * 1e9;
    if (t >= horizon_ns) break;
    ServeRequest r;
    r.due_ns = static_cast<uint64_t>(t);
    const uint64_t mix = rng.Uniform(100);
    r.kind = mix < 80   ? ServeRequest::kInc1
             : mix < 95 ? ServeRequest::kInc4
                        : ServeRequest::kRead4;
    r.nkeys = r.kind == ServeRequest::kInc1 ? 1 : 4;
    for (uint8_t i = 0; i < r.nkeys;) {
      const uint32_t key = perm[zipf.Sample(&rng)];
      if (std::find(r.keys, r.keys + i, key) != r.keys + i) continue;
      r.keys[i++] = key;
    }
    out.push_back(r);
  }
  return out;
}

std::string CounterName(uint32_t k) {
  std::string name = "c";
  name += std::to_string(k);
  return name;
}

std::vector<ccr::BatchOp> ServeOps(const ServeRequest& r) {
  std::vector<ccr::BatchOp> ops;
  ops.reserve(r.nkeys);
  for (uint8_t i = 0; i < r.nkeys; ++i) {
    std::string id = CounterName(r.keys[i]);
    ccr::Invocation inv =
        r.kind == ServeRequest::kRead4
            ? ccr::Invocation(id, ccr::Counter::kRead, "read", {})
            : ccr::Invocation(id, ccr::Counter::kInc, "inc",
                              {ccr::Value(int64_t{1})});
    ops.push_back(ccr::BatchOp{std::move(id), "", std::move(inv)});
  }
  return ops;
}

// ---------------------------------------------------------------------------
// bank_contended
// ---------------------------------------------------------------------------

std::string AccountName(int a) {
  std::string name = "acct";
  name += std::to_string(a);
  return name;
}

BankTxn NextBankTxn(Rng* rng) {
  BankTxn t;
  const uint64_t mix = rng->Uniform(100);
  t.kind = mix < 70   ? BankTxn::kTransfer
           : mix < 90 ? BankTxn::kBalance
                      : BankTxn::kAbortTransfer;
  t.from = static_cast<uint8_t>(rng->Uniform(kBankAccounts));
  const int other_base = t.from < kUipAccounts ? kUipAccounts : 0;
  t.to = static_cast<uint8_t>(other_base +
                              rng->Uniform(kBankAccounts - kUipAccounts));
  t.amount = 1 + static_cast<int64_t>(rng->Uniform(100));
  return t;
}

std::vector<OpeningOp> MakeOpeningHistory(uint64_t seed, size_t n) {
  Rng rng(StreamSeed(seed, 2));
  std::vector<OpeningOp> out(n);
  for (OpeningOp& op : out) {
    op.account = static_cast<uint8_t>(rng.Uniform(kBankAccounts));
    op.deposit = rng.Uniform(4) != 0;
    op.amount = 1 + static_cast<int64_t>(rng.Uniform(100));
  }
  return out;
}

// ---------------------------------------------------------------------------
// restart_cold
// ---------------------------------------------------------------------------

RestartOp NextRestartOp(Rng* rng) {
  RestartOp op;
  op.increment = rng->Uniform(10) == 0;
  op.key = static_cast<uint32_t>(rng->Uniform(kRestartKeys));
  return op;
}

}  // namespace perfbench
