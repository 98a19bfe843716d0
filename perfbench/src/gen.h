// Copyright 2026 The ccr Authors.
//
// The benchmark's input generators. Every input is a pure function of the
// run's --seed (and, for per-client streams, the client index): the engine
// receives only what these produce. The generators use their own PRNG so the
// inputs do not change when the engine's utilities do.

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/operation.h"
#include "txn/txn_manager.h"

namespace perfbench {

// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  // Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n);
  // Uniform in [0, 1).
  double NextDouble();

 private:
  uint64_t s_[4];
};

// Zipf(theta) over ranks [0, n): rank 0 is the most popular.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

// A seeded permutation of [0, n): maps Zipf ranks to keys so the hot keys
// are scattered over the key space.
std::vector<uint32_t> Permutation(uint64_t n, uint64_t seed);

// Derives an independent stream seed from the run seed and a stream index.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

// ---------------------------------------------------------------------------
// serve_zipf
// ---------------------------------------------------------------------------

inline constexpr uint32_t kServeKeys = 100'000;
inline constexpr double kServeTheta = 0.99;

// One request of the open loop: when it is due (ns after the phase start),
// what it does, and on which keys.
struct ServeRequest {
  enum Kind : uint8_t { kInc1, kInc4, kRead4 };
  uint64_t due_ns = 0;
  Kind kind = kInc1;
  uint8_t nkeys = 0;
  uint32_t keys[4] = {0, 0, 0, 0};
};

// The Poisson arrival schedule at `rate` requests/s covering `seconds`:
// 80% one-key increments, 15% four-key increment batches, 5% four-key
// read-only batches, keys Zipf(0.99) over kServeKeys counters (the keys of
// one batch are distinct).
std::vector<ServeRequest> MakeServeSchedule(uint64_t seed, double rate,
                                            double seconds);

// Counter object name of key `k`.
std::string CounterName(uint32_t k);

// The engine ops a request submits.
std::vector<ccr::BatchOp> ServeOps(const ServeRequest& r);

// ---------------------------------------------------------------------------
// bank_contended
// ---------------------------------------------------------------------------

// Accounts 0-3 run UIP+NRBC and 4-7 DU+NFC.
inline constexpr int kBankAccounts = 8;
inline constexpr int kUipAccounts = 4;

std::string AccountName(int a);

// One transaction of a bank client.
struct BankTxn {
  enum Kind : uint8_t { kTransfer, kBalance, kAbortTransfer };
  Kind kind = kTransfer;
  uint8_t from = 0;  // withdraw side (kBalance: the account read)
  uint8_t to = 0;    // deposit side, always of the other recovery method
  int64_t amount = 0;
};

// The next transaction of a client stream: 70% transfers across the two
// recovery methods, 20% balance reads, 10% transfers that abort after their
// withdraw.
BankTxn NextBankTxn(Rng* rng);

// The set-up's opening history: deposits (and some withdraws) of one
// single-threaded client.
struct OpeningOp {
  uint8_t account = 0;
  bool deposit = true;
  int64_t amount = 0;
};
std::vector<OpeningOp> MakeOpeningHistory(uint64_t seed, size_t n);

// ---------------------------------------------------------------------------
// restart_cold
// ---------------------------------------------------------------------------

inline constexpr uint32_t kRestartKeys = 50'000;

struct RestartOp {
  bool increment = false;  // else a single-key read
  uint32_t key = 0;
};

// The next op of a restart client: uniform over the population, 90% reads
// and 10% increments.
RestartOp NextRestartOp(Rng* rng);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
