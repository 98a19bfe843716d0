// Copyright 2026 The ccr Authors.

#include "store/mem_store.h"

namespace ccr {

Status MemObjectStore::ApplyBatch(const StoreWriteBatch& batch,
                                  Durability durability) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fail_batches_ > 0) {
    --fail_batches_;
    return Status::Unavailable("injected store batch failure");
  }
  if (CrashFires(crash_, "store.before_batch")) {
    return SimulatedCrash("store.before_batch");
  }
  if (CrashFires(crash_, "store.torn_batch")) {
    // A torn batch never becomes visible: the log-structured backend drops
    // the half-written frame at Open (CRC mismatch), and the mock mirrors
    // that by applying nothing. Atomicity is the contract under test.
    return SimulatedCrash("store.torn_batch");
  }
  for (const StoreOp& op : batch.ops()) {
    if (op.kind == StoreOp::Kind::kPut) {
      map_[op.key] = op.value;
      ++stats_.puts;
      stats_.bytes_written += op.key.size() + op.value.size();
    } else {
      map_.erase(op.key);
      ++stats_.deletes;
    }
  }
  ++stats_.batches;
  if (CrashFires(crash_, "store.after_batch")) {
    // Batch applied (and, being memory, "durable"), but the caller never
    // hears the ack — the die-after-apply crash point.
    return SimulatedCrash("store.after_batch");
  }
  if (durability == Durability::kSync) {
    if (CrashFires(crash_, "store.before_sync")) {
      return SimulatedCrash("store.before_sync");
    }
    ++stats_.syncs;
  }
  stats_.live_keys = map_.size();
  return Status::OK();
}

StatusOr<std::string> MemObjectStore::Get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fail_gets_ > 0) {
    --fail_gets_;
    return Status::Unavailable("injected store get failure");
  }
  if (crash_ != nullptr && crash_->dead()) {
    return Status::Unavailable("store is dead (crash point fired)");
  }
  ++stats_.gets;
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.get_misses;
    return Status::NotFound("no such key: " + key);
  }
  ++stats_.get_hits;
  stats_.bytes_read += it->second.size();
  return it->second;
}

Status MemObjectStore::Scan(
    const std::function<Status(const std::string&, const std::string&)>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crash_ != nullptr && crash_->dead()) {
    return Status::Unavailable("store is dead (crash point fired)");
  }
  for (const auto& [key, value] : map_) {
    stats_.bytes_read += value.size();
    CCR_RETURN_IF_ERROR(fn(key, value));
  }
  return Status::OK();
}

ObjectStoreStats MemObjectStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ObjectStoreStats out = stats_;
  out.live_keys = map_.size();
  return out;
}

void MemObjectStore::FailNextBatches(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_batches_ = n;
}

void MemObjectStore::FailNextGets(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_gets_ = n;
}

size_t MemObjectStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace ccr
