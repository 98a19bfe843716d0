// Copyright 2026 The ccr Authors.
//
// ObjectStore: the persistent storage tier behind the ADT layer. The
// engine's durability story so far ends at the journal — object state
// lives only in memory and is rebuilt by replay — so the dataset can
// never exceed RAM. The store closes that gap, and is where checkpoints
// live, with a deliberately tiny contract,
// in the style of an embedded-KV adapter (write batches applied
// atomically at commit/checkpoint time, point reads, one scan for
// restart):
//
//   * ApplyBatch — a set of Put/Delete ops made visible all-or-nothing.
//     With Durability::kSync the batch is crash-durable before the call
//     returns (the checkpoint path); with kBuffered it may sit in OS
//     buffers (the eviction path — the journal still covers every record
//     an eviction image reflects, so a lost buffered image costs replay
//     time, never correctness). Implementations must preserve append
//     order: syncing a later batch makes every earlier batch durable
//     too, which is what lets a drop's buffered key-delete never be
//     reordered after a later checkpoint's sync.
//   * Get — point read; kNotFound when the key is absent.
//   * Scan — every live key/value pair, for restart image loading.
//
// The store speaks only opaque bytes. Everything above it goes through
// the ADT state codec (EncodeState/DecodeState) — the backend never
// sees engine structure, which is what keeps it pluggable (log-
// structured file store, in-memory mock, some day a real embedded KV).
// Key/value framing for object images lives in txn/checkpoint.h.

#ifndef CCR_STORE_OBJECT_STORE_H_
#define CCR_STORE_OBJECT_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace ccr {

// One operation of a write batch.
struct StoreOp {
  enum class Kind { kPut, kDelete };
  Kind kind = Kind::kPut;
  std::string key;
  std::string value;  // unused for kDelete
};

// An ordered set of Put/Delete ops applied atomically: after a crash
// either every op of the batch is visible or none is. Later ops win over
// earlier ops on the same key within one batch.
class StoreWriteBatch {
 public:
  void Put(std::string key, std::string value) {
    ops_.push_back({StoreOp::Kind::kPut, std::move(key), std::move(value)});
  }
  void Delete(std::string key) {
    ops_.push_back({StoreOp::Kind::kDelete, std::move(key), {}});
  }
  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }
  const std::vector<StoreOp>& ops() const { return ops_; }

 private:
  std::vector<StoreOp> ops_;
};

// Cumulative backend counters (all monotone; zero-initialized).
struct ObjectStoreStats {
  uint64_t batches = 0;        // ApplyBatch calls that reached the backend
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t gets = 0;
  uint64_t get_hits = 0;
  uint64_t get_misses = 0;
  uint64_t syncs = 0;          // kSync batches (plus explicit syncs)
  uint64_t bytes_written = 0;  // framed batch bytes appended
  uint64_t bytes_read = 0;     // value bytes served by Get/Scan
  uint64_t live_keys = 0;      // current index size
  // Log-structured backend only:
  uint64_t segments = 0;       // segment files currently on disk
  uint64_t dead_bytes = 0;     // superseded record bytes awaiting compaction
  uint64_t compactions = 0;    // segment rewrites completed
  uint64_t bytes_truncated = 0;  // torn tail bytes dropped at Open
};

class ObjectStore {
 public:
  enum class Durability {
    kSync,      // batch is crash-durable before ApplyBatch returns
    kBuffered,  // batch may be lost to a crash until a later sync covers it
  };

  virtual ~ObjectStore() = default;

  // Applies `batch` atomically (all-or-nothing under crashes).
  virtual Status ApplyBatch(const StoreWriteBatch& batch,
                            Durability durability) = 0;

  // Point read. kNotFound when absent; any other non-OK is a backend
  // failure.
  virtual StatusOr<std::string> Get(const std::string& key) = 0;

  // Visits every live key/value pair (no ordering guarantee). Stops and
  // returns the first non-OK `fn` result.
  virtual Status Scan(
      const std::function<Status(const std::string& key,
                                 const std::string& value)>& fn) = 0;

  virtual ObjectStoreStats stats() const = 0;
};

}  // namespace ccr

#endif  // CCR_STORE_OBJECT_STORE_H_
