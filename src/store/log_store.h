// Copyright 2026 The ccr Authors.
//
// LogStructuredStore: the always-available file backend of ObjectStore.
// A directory of append-only segments (store.000001, store.000002, ...),
// each a sequence of CRC32C frames in the journal's [len][crc][payload]
// container format:
//
//   frame 0: header  "sto <seq>\n"      — identifies an initialized segment
//   frame N: batch   binary Put/Delete ops, length-prefixed keys/values
//
// One frame per write batch is what makes batches atomic: a crash mid-
// write leaves a torn frame whose checksum fails, and Open drops it —
// either every op of the batch is visible after restart or none is.
// Length-prefixed values mean empty values and arbitrary bytes (including
// NUL and newlines) need no escaping at this layer.
//
// Reads come from an in-memory index (key -> segment/offset/length) built
// by scanning segments in sequence order at Open — later records win — and
// maintained on every batch. Values are served by pread from the segment
// file, so the resident cost of the store is the index, not the data:
// exactly what cold-object eviction needs.
//
// Torn-tail rule (same shape as the journal's): a damaged frame is legal
// only at the physical end of the HIGHEST-numbered segment, where it is
// truncated away; damage followed by any intact frame, or in a lower
// segment, is real corruption and fails Open with kInternal. A segment
// file whose header frame never became durable (crash between creation
// and header sync) is an artifact and is unlinked, provided it is the
// last segment.
//
// Compaction rewrites the OLDEST sealed segment: its still-live records
// are re-appended to the active segment as one batch, synced, and only
// then is the victim unlinked — a crash between the two leaves duplicate
// records that replay resolves (the copy is later in the log and wins).
// Restricting compaction to the oldest segment is what lets tombstones be
// dropped: a delete record in the oldest segment masks nothing older.
//
// Crash points (shared CrashPoints, see txn/journal_io.h):
//   store.before_batch       die before anything is written
//   store.torn_batch         write half the batch frame, then die
//   store.after_batch        batch fully written, die before the ack
//   store.before_sync        die before the kSync fdatasync
//   store.rot.before_seal    die before fsyncing the sealed segment
//   store.rot.before_header_sync  new segment created, header unsynced
//   store.compact.before_rewrite  die before copying live records
//   store.compact.before_unlink   copies durable, victim still present
//   store.compact.before_dirsync  victim unlinked, removal not durable

#ifndef CCR_STORE_LOG_STORE_H_
#define CCR_STORE_LOG_STORE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/object_store.h"
#include "txn/journal_io.h"

namespace ccr {

struct LogStoreOptions {
  // Roll the active segment once it would exceed this size.
  uint64_t max_segment_bytes = 4ull << 20;
  // After a batch, compact the oldest sealed segment if at least this
  // fraction of its record bytes is dead. <= 0 disables auto-compaction
  // (CompactNow still works).
  double compact_dead_fraction = 0.5;
  // Don't auto-compact segments smaller than this (the copy cost would
  // outweigh the reclaim).
  uint64_t min_compact_bytes = 64ull << 10;
  // Optional fault injection (store.* points above). Not owned; may be
  // shared with a SegmentedFileSink.
  CrashPoints* crash = nullptr;
};

class LogStructuredStore : public ObjectStore {
 public:
  // Scans `dir` (which must exist), repairs the tail, builds the index,
  // and opens a fresh active segment. kInternal on mid-log corruption.
  static StatusOr<std::unique_ptr<LogStructuredStore>> Open(
      const std::string& dir, LogStoreOptions options = {});

  ~LogStructuredStore() override;

  Status ApplyBatch(const StoreWriteBatch& batch,
                    Durability durability) override;
  StatusOr<std::string> Get(const std::string& key) override;
  Status Scan(const std::function<Status(const std::string&,
                                         const std::string&)>& fn) override;
  ObjectStoreStats stats() const override;

  // Compacts the oldest sealed segment regardless of thresholds (no-op
  // when only the active segment exists).
  Status CompactNow();

  // Test-only, in the spirit of MemObjectStore::FailNextBatches: the next
  // frame append writes half its bytes and then reports an injected I/O
  // error, exercising the partial-append rollback path.
  void FailNextAppendPartially();

  const std::string& dir() const { return dir_; }

 private:
  struct Segment {
    uint64_t seq = 0;
    std::string path;
    int fd = -1;
    uint64_t size = 0;       // bytes on disk (== append offset for active)
    uint64_t dead = 0;       // superseded/tombstone record bytes
  };
  struct ValueLoc {
    uint64_t seq = 0;        // owning segment
    uint64_t offset = 0;     // byte offset of the value within the file
    uint32_t vlen = 0;
    uint32_t klen = 0;       // for dead-record accounting
  };

  LogStructuredStore(std::string dir, LogStoreOptions options)
      : dir_(std::move(dir)), options_(options) {}

  Status LoadSegmentLocked(Segment* seg, bool is_last,
                           ObjectStoreStats* stats);
  Status OpenActiveLocked(uint64_t seq);
  Status RotateLocked();
  Status WriteFrameLocked(const std::string& framed);
  // Applies `payload` (a decoded batch) to the index. `seq`/`frame_pos`
  // locate the frame on disk. kInternal on malformed payloads.
  Status IndexBatchLocked(std::string_view payload, uint64_t seq,
                          uint64_t frame_pos);
  Status CompactOldestLocked(bool force);
  Segment* FindSegmentLocked(uint64_t seq);
  void AccountDeadLocked(const ValueLoc& old);

  const std::string dir_;
  const LogStoreOptions options_;

  mutable std::mutex mu_;
  std::vector<Segment> segments_;  // ascending seq; back() is active
  std::unordered_map<std::string, ValueLoc> index_;
  ObjectStoreStats stats_;
  // Set when a failed append could not be rolled back to the last frame
  // boundary: the fd offset no longer matches the indexed log, so any
  // further append would be misframed. Reads of already-indexed frames
  // stay sound (they lie below the boundary), so only writers fail fast.
  bool failed_ = false;
  bool fail_next_append_ = false;  // armed by FailNextAppendPartially
};

}  // namespace ccr

#endif  // CCR_STORE_LOG_STORE_H_
