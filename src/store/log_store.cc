// Copyright 2026 The ccr Authors.

#include "store/log_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/string_util.h"
#include "txn/journal_format.h"

namespace ccr {
namespace {

constexpr std::string_view kSegmentPrefix = "store.";

std::string StoreSegmentFileName(uint64_t seq) {
  return StrFormat("store.%06llu", static_cast<unsigned long long>(seq));
}

std::optional<uint64_t> ParseSegmentSeq(const std::string& name) {
  if (name.size() <= kSegmentPrefix.size() ||
      std::string_view(name).substr(0, kSegmentPrefix.size()) !=
          kSegmentPrefix) {
    return std::nullopt;
  }
  const std::string digits = name.substr(kSegmentPrefix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::strtoull(digits.c_str(), nullptr, 10);
}

std::string SegmentHeaderPayload(uint64_t seq) {
  return StrFormat("sto %llu\n", static_cast<unsigned long long>(seq));
}

Status ErrnoError(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status WriteAll(int fd, std::string_view data) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("store segment write failed");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PreadExact(int fd, char* buf, size_t len, uint64_t off) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd, buf + done, len - done,
                              static_cast<off_t>(off + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("store segment pread failed");
    }
    if (n == 0) return Status::Internal("store segment shorter than index");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

void AppendU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

bool ReadU32(std::string_view in, size_t pos, uint32_t* v) {
  if (pos + 4 > in.size()) return false;
  *v = static_cast<uint32_t>(static_cast<unsigned char>(in[pos])) |
       static_cast<uint32_t>(static_cast<unsigned char>(in[pos + 1])) << 8 |
       static_cast<uint32_t>(static_cast<unsigned char>(in[pos + 2])) << 16 |
       static_cast<uint32_t>(static_cast<unsigned char>(in[pos + 3])) << 24;
  return true;
}

// Binary batch payload: 'P' klen key vlen value | 'D' klen key, with u32
// little-endian length prefixes. Length-prefixing (not escaping) is what
// makes empty and binary values round-trip trivially.
std::string EncodeBatchPayload(const StoreWriteBatch& batch) {
  std::string out;
  for (const StoreOp& op : batch.ops()) {
    out.push_back(op.kind == StoreOp::Kind::kPut ? 'P' : 'D');
    AppendU32(&out, static_cast<uint32_t>(op.key.size()));
    out += op.key;
    if (op.kind == StoreOp::Kind::kPut) {
      AppendU32(&out, static_cast<uint32_t>(op.value.size()));
      out += op.value;
    }
  }
  return out;
}

uint64_t RecordCost(uint32_t klen, uint32_t vlen, bool is_put) {
  return 1 + 4 + klen + (is_put ? 4 + static_cast<uint64_t>(vlen) : 0);
}

}  // namespace

StatusOr<std::unique_ptr<LogStructuredStore>> LogStructuredStore::Open(
    const std::string& dir, LogStoreOptions options) {
  std::unique_ptr<LogStructuredStore> store(
      new LogStructuredStore(dir, options));
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<std::pair<uint64_t, std::string>> found;
  for (const std::string& name : *names) {
    if (const std::optional<uint64_t> seq = ParseSegmentSeq(name)) {
      found.emplace_back(*seq, dir + "/" + name);
    }
  }
  std::sort(found.begin(), found.end());

  std::lock_guard<std::mutex> lock(store->mu_);
  for (size_t i = 0; i < found.size(); ++i) {
    Segment seg;
    seg.seq = found[i].first;
    seg.path = found[i].second;
    seg.fd = ::open(seg.path.c_str(), O_RDWR | O_CLOEXEC);
    if (seg.fd < 0) return ErrnoError("cannot open " + seg.path);
    store->segments_.push_back(seg);
    const Status loaded = store->LoadSegmentLocked(
        &store->segments_.back(), /*is_last=*/i + 1 == found.size(),
        &store->stats_);
    if (!loaded.ok()) return loaded;
    if (store->segments_.back().fd < 0) {
      // LoadSegmentLocked unlinked a creation artifact.
      store->segments_.pop_back();
    }
  }
  const uint64_t next_seq =
      store->segments_.empty() ? 1 : store->segments_.back().seq + 1;
  CCR_RETURN_IF_ERROR(store->OpenActiveLocked(next_seq));
  return store;
}

LogStructuredStore::~LogStructuredStore() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Segment& seg : segments_) {
    if (seg.fd >= 0) ::close(seg.fd);
  }
}

Status LogStructuredStore::LoadSegmentLocked(Segment* seg, bool is_last,
                                             ObjectStoreStats* stats) {
  StatusOr<std::string> image = ReadFileImage(seg->path);
  if (!image.ok()) return image.status();
  const std::string_view bytes = *image;

  // Header frame. A file without a durable header is a creation artifact
  // (crash between segment creation and header sync) — legal only as the
  // last segment, where it is unlinked.
  uint32_t header_len = 0;
  const std::string expected_header = SegmentHeaderPayload(seg->seq);
  const bool header_ok =
      IntactJournalFrameAt(bytes, 0, &header_len) &&
      bytes.substr(kJournalFrameHeaderSize, header_len) == expected_header;
  if (!header_ok) {
    if (is_last && !IntactJournalFrameAfter(bytes, 0)) {
      ::close(seg->fd);
      seg->fd = -1;
      if (std::remove(seg->path.c_str()) != 0) {
        return ErrnoError("cannot unlink store artifact " + seg->path);
      }
      CCR_RETURN_IF_ERROR(SyncDir(dir_));
      return Status::OK();
    }
    return Status::Internal("store segment " + seg->path +
                            " has a damaged header");
  }

  size_t pos = kJournalFrameHeaderSize + header_len;
  while (pos < bytes.size()) {
    uint32_t payload_len = 0;
    if (!IntactJournalFrameAt(bytes, pos, &payload_len)) {
      if (IntactJournalFrameAfter(bytes, pos) || !is_last) {
        // Damage followed by an intact frame, or in a sealed mid-log
        // segment, cannot be a torn append — refuse to guess.
        return Status::Internal("store segment " + seg->path +
                                " is corrupt mid-file");
      }
      // Torn tail of the newest segment: physically truncate so the next
      // append starts at a clean boundary.
      if (::ftruncate(seg->fd, static_cast<off_t>(pos)) != 0) {
        return ErrnoError("cannot truncate torn tail of " + seg->path);
      }
      if (::fsync(seg->fd) != 0) {
        return ErrnoError("cannot sync truncated " + seg->path);
      }
      stats->bytes_truncated += bytes.size() - pos;
      break;
    }
    const std::string_view payload =
        bytes.substr(pos + kJournalFrameHeaderSize, payload_len);
    CCR_RETURN_IF_ERROR(IndexBatchLocked(payload, seg->seq,
                                         static_cast<uint64_t>(pos)));
    pos += kJournalFrameHeaderSize + payload_len;
  }
  seg->size = std::min<uint64_t>(pos, bytes.size());
  return Status::OK();
}

Status LogStructuredStore::OpenActiveLocked(uint64_t seq) {
  Segment seg;
  seg.seq = seq;
  seg.path = dir_ + "/" + StoreSegmentFileName(seq);
  seg.fd = ::open(seg.path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (seg.fd < 0) return ErrnoError("cannot create " + seg.path);
  const std::string header = FrameBlob(SegmentHeaderPayload(seq));
  CCR_RETURN_IF_ERROR(WriteAll(seg.fd, header));
  if (CrashFires(options_.crash, "store.rot.before_header_sync")) {
    segments_.push_back(seg);
    return SimulatedCrash("store.rot.before_header_sync");
  }
  if (::fsync(seg.fd) != 0) return ErrnoError("cannot sync " + seg.path);
  CCR_RETURN_IF_ERROR(SyncDir(dir_));
  seg.size = header.size();
  segments_.push_back(seg);
  return Status::OK();
}

Status LogStructuredStore::RotateLocked() {
  Segment& active = segments_.back();
  if (CrashFires(options_.crash, "store.rot.before_seal")) {
    return SimulatedCrash("store.rot.before_seal");
  }
  // Seal: everything appended so far becomes durable before the segment
  // goes read-only — a later batch's sync can then never be reordered
  // ahead of a sealed segment's contents.
  if (::fsync(active.fd) != 0) {
    return ErrnoError("cannot seal " + active.path);
  }
  return OpenActiveLocked(active.seq + 1);
}

Status LogStructuredStore::WriteFrameLocked(const std::string& framed) {
  Segment& active = segments_.back();
  Status written;
  if (fail_next_append_) {
    fail_next_append_ = false;
    (void)WriteAll(active.fd,
                   std::string_view(framed).substr(0, framed.size() / 2));
    written = Status::Internal("injected partial append failure");
  } else {
    written = WriteAll(active.fd, framed);
  }
  if (!written.ok()) {
    // A partial write (ENOSPC/EIO mid-frame) leaves the fd offset ahead
    // of active.size: the next frame would land past where the index
    // says frames start, so point reads (whose value preads carry no CRC)
    // would silently serve wrong bytes, and reopen would refuse the
    // segment as corrupt mid-file. Roll the file back to the last frame
    // boundary; if even that fails, poison all further writes — reads of
    // already-indexed frames stay sound, since they lie below active.size.
    if (::ftruncate(active.fd, static_cast<off_t>(active.size)) != 0 ||
        ::lseek(active.fd, static_cast<off_t>(active.size), SEEK_SET) ==
            static_cast<off_t>(-1)) {
      failed_ = true;
    }
    return written;
  }
  active.size += framed.size();
  stats_.bytes_written += framed.size();
  return Status::OK();
}

Status LogStructuredStore::IndexBatchLocked(std::string_view payload,
                                            uint64_t seq,
                                            uint64_t frame_pos) {
  const uint64_t payload_base = frame_pos + kJournalFrameHeaderSize;
  size_t pos = 0;
  while (pos < payload.size()) {
    const char kind = payload[pos];
    if (kind != 'P' && kind != 'D') {
      return Status::Internal("malformed store batch op kind");
    }
    ++pos;
    uint32_t klen = 0;
    if (!ReadU32(payload, pos, &klen) || pos + 4 + klen > payload.size()) {
      return Status::Internal("malformed store batch key");
    }
    pos += 4;
    const std::string key(payload.substr(pos, klen));
    pos += klen;
    if (kind == 'P') {
      uint32_t vlen = 0;
      if (!ReadU32(payload, pos, &vlen) || pos + 4 + vlen > payload.size()) {
        return Status::Internal("malformed store batch value");
      }
      pos += 4;
      ValueLoc loc;
      loc.seq = seq;
      loc.offset = payload_base + pos;
      loc.vlen = vlen;
      loc.klen = klen;
      pos += vlen;
      auto it = index_.find(key);
      if (it != index_.end()) {
        AccountDeadLocked(it->second);
        it->second = loc;
      } else {
        index_.emplace(key, loc);
      }
      ++stats_.puts;
    } else {
      auto it = index_.find(key);
      if (it != index_.end()) {
        AccountDeadLocked(it->second);
        index_.erase(it);
      }
      // The tombstone record itself is reclaimable the moment it becomes
      // the oldest segment's content.
      if (Segment* s = FindSegmentLocked(seq)) {
        const uint64_t cost = RecordCost(klen, 0, false);
        s->dead += cost;
        stats_.dead_bytes += cost;
      }
      ++stats_.deletes;
    }
  }
  return Status::OK();
}

Status LogStructuredStore::ApplyBatch(const StoreWriteBatch& batch,
                                      Durability durability) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.crash != nullptr && options_.crash->dead()) {
    return Status::Unavailable("store is dead (crash point fired)");
  }
  if (failed_) {
    return Status::Internal(
        "store is write-poisoned: a failed append could not be rolled back");
  }
  for (const StoreOp& op : batch.ops()) {
    // The frame's length prefixes are u32: a larger op would silently
    // truncate its prefix and misframe the payload on replay.
    if (op.key.size() > std::numeric_limits<uint32_t>::max() ||
        op.value.size() > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument(
          "store op key/value exceeds the 4 GiB frame limit");
    }
  }
  if (CrashFires(options_.crash, "store.before_batch")) {
    return SimulatedCrash("store.before_batch");
  }
  const std::string framed = FrameBlob(EncodeBatchPayload(batch));
  Segment* active = &segments_.back();
  if (active->size + framed.size() > options_.max_segment_bytes &&
      active->size > FrameBlob(SegmentHeaderPayload(active->seq)).size()) {
    CCR_RETURN_IF_ERROR(RotateLocked());
  }
  active = &segments_.back();
  if (CrashFires(options_.crash, "store.torn_batch")) {
    (void)WriteAll(active->fd,
                   std::string_view(framed).substr(0, framed.size() / 2));
    return SimulatedCrash("store.torn_batch");
  }
  const uint64_t frame_pos = active->size;
  CCR_RETURN_IF_ERROR(WriteFrameLocked(framed));
  CCR_RETURN_IF_ERROR(IndexBatchLocked(
      std::string_view(framed).substr(kJournalFrameHeaderSize), active->seq,
      frame_pos));
  ++stats_.batches;
  if (CrashFires(options_.crash, "store.after_batch")) {
    return SimulatedCrash("store.after_batch");
  }
  if (durability == Durability::kSync) {
    if (CrashFires(options_.crash, "store.before_sync")) {
      return SimulatedCrash("store.before_sync");
    }
    if (::fdatasync(active->fd) != 0) {
      return ErrnoError("cannot sync " + active->path);
    }
    ++stats_.syncs;
  }
  if (options_.compact_dead_fraction > 0) {
    CCR_RETURN_IF_ERROR(CompactOldestLocked(/*force=*/false));
  }
  return Status::OK();
}

StatusOr<std::string> LogStructuredStore::Get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.gets;
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.get_misses;
    return Status::NotFound("no such key: " + key);
  }
  Segment* seg = FindSegmentLocked(it->second.seq);
  if (seg == nullptr || seg->fd < 0) {
    return Status::Internal("index points at a missing store segment");
  }
  std::string value(it->second.vlen, '\0');
  CCR_RETURN_IF_ERROR(
      PreadExact(seg->fd, value.data(), value.size(), it->second.offset));
  ++stats_.get_hits;
  stats_.bytes_read += value.size();
  return value;
}

Status LogStructuredStore::Scan(
    const std::function<Status(const std::string&, const std::string&)>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, loc] : index_) {
    Segment* seg = FindSegmentLocked(loc.seq);
    if (seg == nullptr || seg->fd < 0) {
      return Status::Internal("index points at a missing store segment");
    }
    std::string value(loc.vlen, '\0');
    CCR_RETURN_IF_ERROR(
        PreadExact(seg->fd, value.data(), value.size(), loc.offset));
    stats_.bytes_read += value.size();
    CCR_RETURN_IF_ERROR(fn(key, value));
  }
  return Status::OK();
}

Status LogStructuredStore::CompactNow() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.crash != nullptr && options_.crash->dead()) {
    return Status::Unavailable("store is dead (crash point fired)");
  }
  if (failed_) {
    return Status::Internal(
        "store is write-poisoned: a failed append could not be rolled back");
  }
  return CompactOldestLocked(/*force=*/true);
}

void LogStructuredStore::FailNextAppendPartially() {
  std::lock_guard<std::mutex> lock(mu_);
  fail_next_append_ = true;
}

Status LogStructuredStore::CompactOldestLocked(bool force) {
  if (segments_.size() < 2) return Status::OK();  // only the active segment
  Segment& victim = segments_.front();
  const uint64_t header_bytes =
      FrameBlob(SegmentHeaderPayload(victim.seq)).size();
  const uint64_t record_bytes =
      victim.size > header_bytes ? victim.size - header_bytes : 0;
  if (!force) {
    if (record_bytes < options_.min_compact_bytes) return Status::OK();
    if (static_cast<double>(victim.dead) <
        options_.compact_dead_fraction * static_cast<double>(record_bytes)) {
      return Status::OK();
    }
  }
  if (CrashFires(options_.crash, "store.compact.before_rewrite")) {
    return SimulatedCrash("store.compact.before_rewrite");
  }

  // Copy the victim's still-live records to the end of the log. The copy
  // must be durable BEFORE the victim is unlinked; between the two steps a
  // crash leaves duplicates, which replay resolves (the later copy wins).
  StoreWriteBatch live;
  for (const auto& [key, loc] : index_) {
    if (loc.seq != victim.seq) continue;
    std::string value(loc.vlen, '\0');
    CCR_RETURN_IF_ERROR(
        PreadExact(victim.fd, value.data(), value.size(), loc.offset));
    live.Put(key, std::move(value));
  }
  if (!live.empty()) {
    Segment* active = &segments_.back();
    const uint64_t frame_pos = active->size;
    const std::string framed = FrameBlob(EncodeBatchPayload(live));
    CCR_RETURN_IF_ERROR(WriteFrameLocked(framed));
    CCR_RETURN_IF_ERROR(IndexBatchLocked(
        std::string_view(framed).substr(kJournalFrameHeaderSize),
        active->seq, frame_pos));
    if (::fdatasync(active->fd) != 0) {
      return ErrnoError("cannot sync compaction copy into " + active->path);
    }
    ++stats_.syncs;
  }

  if (CrashFires(options_.crash, "store.compact.before_unlink")) {
    return SimulatedCrash("store.compact.before_unlink");
  }
  ::close(victim.fd);
  if (std::remove(victim.path.c_str()) != 0) {
    return ErrnoError("cannot unlink compacted segment " + victim.path);
  }
  stats_.dead_bytes -= std::min(stats_.dead_bytes, victim.dead);
  segments_.erase(segments_.begin());
  if (CrashFires(options_.crash, "store.compact.before_dirsync")) {
    return SimulatedCrash("store.compact.before_dirsync");
  }
  CCR_RETURN_IF_ERROR(SyncDir(dir_));
  ++stats_.compactions;
  return Status::OK();
}

LogStructuredStore::Segment* LogStructuredStore::FindSegmentLocked(
    uint64_t seq) {
  for (Segment& seg : segments_) {
    if (seg.seq == seq) return &seg;
  }
  return nullptr;
}

void LogStructuredStore::AccountDeadLocked(const ValueLoc& old) {
  const uint64_t cost = RecordCost(old.klen, old.vlen, true);
  if (Segment* seg = FindSegmentLocked(old.seq)) seg->dead += cost;
  stats_.dead_bytes += cost;
}

ObjectStoreStats LogStructuredStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ObjectStoreStats out = stats_;
  out.live_keys = index_.size();
  out.segments = segments_.size();
  return out;
}

}  // namespace ccr
