// Copyright 2026 The ccr Authors.

#include "txn/journal_io.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>

#ifndef _WIN32
#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/string_util.h"

namespace ccr {

// Crash-consistency rule: creating (or unlinking, or renaming) a file
// makes its *directory entry* a separate piece of mutable state — fdatasync
// on the file fd makes the bytes durable, but only an fsync of the parent
// directory makes the entry (the name -> inode link) durable. Without it, a
// crash right after creation can lose the whole journal file even though
// every record in it was synced. (POSIX leaves entry durability to the
// directory; ext4 & friends all require the directory fsync.)
Status SyncDir(const std::string& dir) {
#ifndef _WIN32
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::Internal(StrFormat("cannot open journal directory %s: %s",
                                      dir.c_str(), std::strerror(errno)));
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::Internal(StrFormat("fsync of journal directory %s "
                                      "failed: %s",
                                      dir.c_str(),
                                      std::strerror(saved_errno)));
  }
#else
  (void)dir;
#endif
  return Status::OK();
}

Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  return SyncDir(dir);
}

StatusOr<std::vector<std::string>> ListDir(const std::string& dir) {
#ifndef _WIN32
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return Status::NotFound(StrFormat("cannot list directory %s: %s",
                                      dir.c_str(), std::strerror(errno)));
  }
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(handle);
  return names;
#else
  return Status::Internal("ListDir unsupported on this platform");
#endif
}

StatusOr<std::unique_ptr<FileSink>> FileSink::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::InvalidArgument(StrFormat("cannot open %s: %s",
                                             path.c_str(),
                                             std::strerror(errno)));
  }
  const Status dir_sync = SyncParentDir(path);
  if (!dir_sync.ok()) {
    std::fclose(file);
    return dir_sync;
  }
  return std::unique_ptr<FileSink>(new FileSink(file));
}

FileSink::~FileSink() {
  // A destructor cannot surface the error; sinks on durability-bearing
  // paths (segment rotation, checkpoint write) call Close() and check it.
  const Status s = Close();
  if (!s.ok()) {
    std::fprintf(stderr, "ccr: FileSink close failed in destructor: %s\n",
                 s.ToString().c_str());
  }
}

Status FileSink::Close() {
  if (file_ == nullptr) return Status::OK();
  std::FILE* file = file_;
  file_ = nullptr;
  // fflush first so a buffered-write error is distinguishable; fclose can
  // also fail flushing its remaining buffer, and ignoring either silently
  // drops journal bytes that Append reported as accepted.
  const bool flush_failed = std::fflush(file) != 0;
  const int flush_errno = errno;
  const bool close_failed = std::fclose(file) != 0;
  if (flush_failed) {
    return Status::Internal(StrFormat("journal flush at close failed: %s",
                                      std::strerror(flush_errno)));
  }
  if (close_failed) {
    return Status::Internal(StrFormat("journal close failed: %s",
                                      std::strerror(errno)));
  }
  return Status::OK();
}

Status FileSink::Append(std::string_view bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return Status::Internal(StrFormat("journal write failed: %s",
                                      std::strerror(errno)));
  }
  return Status::OK();
}

Status FileSink::Sync() {
  if (std::fflush(file_) != 0) {
    return Status::Internal(StrFormat("journal flush failed: %s",
                                      std::strerror(errno)));
  }
#ifndef _WIN32
  if (fdatasync(fileno(file_)) != 0) {
    return Status::Internal(StrFormat("journal fdatasync failed: %s",
                                      std::strerror(errno)));
  }
#endif
  return Status::OK();
}

StatusOr<std::string> ReadFileImage(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound(StrFormat("cannot read %s: %s", path.c_str(),
                                      std::strerror(errno)));
  }
  std::string image;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    image.append(buf, n);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    return Status::Internal(StrFormat("read of %s failed", path.c_str()));
  }
  return image;
}

std::string_view FaultInjector::Admit(size_t index, std::string_view encoded) {
  if (dead_) return {};
  switch (kind_) {
    case Kind::kNone:
      return encoded;
    case Kind::kCrash:
      if (index >= record_) {
        dead_ = true;
        return {};
      }
      return encoded;
    case Kind::kTear:
      if (index == record_) {
        dead_ = true;
        return encoded.substr(0, std::min(keep_bytes_, encoded.size()));
      }
      if (index > record_) {
        dead_ = true;
        return {};
      }
      return encoded;
  }
  return encoded;
}

void FlipByte(std::string* image, size_t offset, uint8_t mask) {
  CCR_CHECK_MSG(offset < image->size(), "flip at %zu beyond image of %zu",
                offset, image->size());
  (*image)[offset] = static_cast<char>(
      static_cast<uint8_t>((*image)[offset]) ^ mask);
}

JournalWriter::JournalWriter(ByteSink* sink, FaultInjector fault)
    : sink_(sink), fault_(fault) {
  CCR_CHECK(sink_ != nullptr);
}

Status JournalWriter::Append(const Journal::CommitRecord& record) {
  CCR_RETURN_IF_ERROR(AppendEncoded(EncodeCommitRecord(record)));
  return Sync();
}

Status JournalWriter::Append(const Journal::Entry& entry) {
  CCR_RETURN_IF_ERROR(AppendNoSync(entry));
  return Sync();
}

Status JournalWriter::AppendNoSync(const Journal::Entry& entry) {
  return AppendEncoded(EncodeEntryRecord(entry));
}

Status JournalWriter::AppendEncoded(const std::string& encoded) {
  const std::string_view admitted = fault_.Admit(records_seen_++, encoded);
  if (!admitted.empty()) {
    CCR_RETURN_IF_ERROR(sink_->Append(admitted));
    bytes_written_ += admitted.size();
  }
  if (admitted.size() == encoded.size()) {
    ++records_appended_;
    boundaries_.push_back(bytes_written_);
  }
  // Partial admit: the injected crash interrupted (or preceded) this
  // write; the caller's simulated process is gone, so there is nothing to
  // report upward — the disk never sees the record.
  return Status::OK();
}

Status JournalWriter::Sync() {
  // A dead (crashed) simulated process issues no further syncs: nothing
  // written after the fault point may become a durable watermark.
  if (fault_.dead()) return Status::OK();
  CCR_RETURN_IF_ERROR(sink_->Sync());
  sync_offsets_.push_back(bytes_written_);
  return Status::OK();
}

uint64_t JournalWriter::boundary(size_t index) const {
  CCR_CHECK_MSG(index < boundaries_.size(), "boundary %zu of %zu", index,
                boundaries_.size());
  return boundaries_[index];
}

// ---------------------------------------------------------------------------
// Segmented journal
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kSegmentPrefix = "journal.";

std::string SegmentHeaderPayload(Lsn first_lsn) {
  return StrFormat("seg %llu\n", static_cast<unsigned long long>(first_lsn));
}

StatusOr<Lsn> DecodeSegmentHeader(std::string_view payload) {
  unsigned long long lsn = 0;
  char newline = 0;
  const std::string buf(payload);
  if (std::sscanf(buf.c_str(), "seg %llu%c", &lsn, &newline) != 2 ||
      newline != '\n' || lsn == 0) {
    return Status::Internal("segment missing its 'seg <lsn>' header frame");
  }
  return static_cast<Lsn>(lsn);
}

// Parses "journal.NNNNNN" into NNNNNN; nullopt for other names.
std::optional<uint64_t> ParseSegmentSeq(const std::string& name) {
  if (name.size() <= kSegmentPrefix.size() ||
      std::string_view(name).substr(0, kSegmentPrefix.size()) !=
          kSegmentPrefix) {
    return std::nullopt;
  }
  const std::string digits = name.substr(kSegmentPrefix.size());
  if (digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::strtoull(digits.c_str(), nullptr, 10);
}

// Segment files of `dir`, sorted by sequence number.
StatusOr<std::vector<std::pair<uint64_t, std::string>>> ListSegments(
    const std::string& dir) {
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : *names) {
    if (const std::optional<uint64_t> seq = ParseSegmentSeq(name)) {
      segments.emplace_back(*seq, dir + "/" + name);
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

// Truncates `path` to `size` bytes and fsyncs the file. No directory sync
// is needed: truncation changes the inode, not the directory entry.
Status TruncateFileTo(const std::string& path, size_t size) {
#ifndef _WIN32
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::Internal(StrFormat("cannot open %s for truncate: %s",
                                      path.c_str(), std::strerror(errno)));
  }
  Status status = Status::OK();
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    status = Status::Internal(StrFormat("cannot truncate %s to %zu: %s",
                                        path.c_str(), size,
                                        std::strerror(errno)));
  } else if (::fsync(fd) != 0) {
    status = Status::Internal(StrFormat("fsync after truncate of %s "
                                        "failed: %s",
                                        path.c_str(), std::strerror(errno)));
  }
  ::close(fd);
  return status;
#else
  (void)path;
  (void)size;
  return Status::Internal("truncate unsupported on this platform");
#endif
}

// A torn tail (a crash mid-write of the last record) is tolerated by the
// scan only while its segment is the FINAL one. The resume protocol then
// opens a higher-numbered segment, which would turn the still-present torn
// bytes into mid-sequence damage — and a second restart would reject the
// directory forever. So before a reopen buries the segment, physically cut
// the torn bytes off (ftruncate + fsync). Damage *followed by* an intact
// frame is real mid-image corruption: nothing may be cut (durable records
// lie past it) — leave the bytes for the scan to reject loudly.
Status TruncateTornTail(const std::string& path, const std::string& image) {
  size_t offset = 0;
  uint32_t len = 0;
  while (offset < image.size() && IntactJournalFrameAt(image, offset, &len)) {
    offset += kJournalFrameHeaderSize + len;
  }
  if (offset >= image.size()) return Status::OK();  // clean tail
  if (IntactJournalFrameAfter(image, offset)) return Status::OK();
  return TruncateFileTo(path, offset);
}

}  // namespace

bool CrashFires(CrashPoints* crash, std::string_view point) {
  return crash != nullptr && crash->Hit(point);
}

Status SimulatedCrash(std::string_view point) {
  return Status::Unavailable(
      StrFormat("simulated crash at %.*s", static_cast<int>(point.size()),
                point.data()));
}

std::string SegmentFileName(uint64_t seq) {
  return StrFormat("%.*s%06llu", static_cast<int>(kSegmentPrefix.size()),
                   kSegmentPrefix.data(),
                   static_cast<unsigned long long>(seq));
}

SegmentedFileSink::SegmentedFileSink(std::string dir, uint64_t seq,
                                     Lsn first_lsn,
                                     SegmentedSinkOptions options,
                                     std::unique_ptr<FileSink> active)
    : dir_(std::move(dir)),
      options_(options),
      active_seq_(seq),
      active_first_lsn_(first_lsn),
      next_lsn_(first_lsn),
      active_(std::move(active)) {}

StatusOr<std::unique_ptr<SegmentedFileSink>> SegmentedFileSink::Open(
    const std::string& dir, Lsn first_lsn, SegmentedSinkOptions options) {
  CCR_CHECK(options.max_segment_bytes > 0);
  StatusOr<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListSegments(dir);
  if (!segments.ok()) return segments.status();
  // Clean up trailing rotation-crash artifacts: a segment whose first
  // frame is not an intact header holds no durable records (the header is
  // written and synced before any record), so unlinking it loses nothing —
  // and leaving it would turn into mid-sequence damage once this open
  // creates a higher-numbered segment.
  uint64_t max_seq = 0;
  bool removed_artifact = false;
  for (auto it = segments->rbegin(); it != segments->rend(); ++it) {
    StatusOr<std::string> image = ReadFileImage(it->second);
    // A failed read proves nothing about the segment's contents — a
    // transient EIO must not unlink a sealed segment full of durable
    // records. Only a successful read showing no intact header marks a
    // rotation artifact.
    if (!image.ok()) return image.status();
    if (IntactJournalFrameAt(*image, 0, nullptr)) {
      max_seq = it->first;
      // This segment is about to stop being the final one; a torn tail
      // tolerated there would become permanent mid-sequence damage.
      CCR_RETURN_IF_ERROR(TruncateTornTail(it->second, *image));
      break;
    }
    if (std::remove(it->second.c_str()) != 0) {
      return Status::Internal(StrFormat("cannot remove artifact %s: %s",
                                        it->second.c_str(),
                                        std::strerror(errno)));
    }
    removed_artifact = true;
  }
  if (removed_artifact) CCR_RETURN_IF_ERROR(SyncDir(dir));

  const uint64_t seq = max_seq + 1;
  const std::string path = dir + "/" + SegmentFileName(seq);
  StatusOr<std::unique_ptr<FileSink>> file = FileSink::Open(path);
  if (!file.ok()) return file.status();
  const std::string header = FrameBlob(SegmentHeaderPayload(first_lsn));
  CCR_RETURN_IF_ERROR((*file)->Append(header));
  CCR_RETURN_IF_ERROR((*file)->Sync());
  return std::unique_ptr<SegmentedFileSink>(new SegmentedFileSink(
      dir, seq, first_lsn, options, std::move(*file)));
}

Status SegmentedFileSink::Append(std::string_view bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.crash != nullptr && options_.crash->dead()) {
    return SimulatedCrash("dead");
  }
  if (active_record_bytes_ > 0 &&
      active_record_bytes_ + bytes.size() > options_.max_segment_bytes) {
    CCR_RETURN_IF_ERROR(RotateLocked());
  }
  CCR_RETURN_IF_ERROR(active_->Append(bytes));
  active_record_bytes_ += bytes.size();
  ++next_lsn_;
  return Status::OK();
}

Status SegmentedFileSink::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.crash != nullptr && options_.crash->dead()) {
    return SimulatedCrash("dead");
  }
  return active_->Sync();
}

Status SegmentedFileSink::RotateLocked() {
  if (CrashFires(options_.crash, "rot.before_seal_sync")) {
    return SimulatedCrash("rot.before_seal_sync");
  }
  // Seal: every record of the outgoing segment becomes durable before the
  // segment can be considered complete; truncation relies on sealed
  // segments being fully synced.
  CCR_RETURN_IF_ERROR(active_->Sync());
  if (CrashFires(options_.crash, "rot.before_seal_close")) {
    return SimulatedCrash("rot.before_seal_close");
  }
  CCR_RETURN_IF_ERROR(active_->Close());
  sealed_.push_back(Sealed{active_seq_, active_first_lsn_, next_lsn_ - 1,
                           dir_ + "/" + SegmentFileName(active_seq_)});
  return OpenSegmentLocked(active_seq_ + 1, next_lsn_);
}

Status SegmentedFileSink::OpenSegmentLocked(uint64_t seq, Lsn first_lsn) {
  const std::string path = dir_ + "/" + SegmentFileName(seq);
  // FileSink::Open fsyncs the parent directory after creating the file, so
  // the new segment's directory entry is durable before any record lands
  // in it.
  StatusOr<std::unique_ptr<FileSink>> file = FileSink::Open(path);
  if (!file.ok()) return file.status();
  if (CrashFires(options_.crash, "rot.after_create")) {
    // The headerless artifact: the file exists (entry durable), the header
    // was never written. Recovery ignores it; the next Open unlinks it.
    return SimulatedCrash("rot.after_create");
  }
  const std::string header = FrameBlob(SegmentHeaderPayload(first_lsn));
  CCR_RETURN_IF_ERROR((*file)->Append(header));
  if (CrashFires(options_.crash, "rot.before_header_sync")) {
    return SimulatedCrash("rot.before_header_sync");
  }
  CCR_RETURN_IF_ERROR((*file)->Sync());
  active_ = std::move(*file);
  active_seq_ = seq;
  active_first_lsn_ = first_lsn;
  active_record_bytes_ = 0;
  return Status::OK();
}

Status SegmentedFileSink::TruncateBelow(Lsn anchor) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.crash != nullptr && options_.crash->dead()) {
    return SimulatedCrash("dead");
  }
  bool removed = false;
  while (!sealed_.empty() && sealed_.front().last_lsn <= anchor) {
    if (CrashFires(options_.crash, "trunc.before_unlink")) {
      return SimulatedCrash("trunc.before_unlink");
    }
    const std::string path = sealed_.front().path;
    if (std::remove(path.c_str()) != 0) {
      return Status::Internal(StrFormat("cannot remove segment %s: %s",
                                        path.c_str(), std::strerror(errno)));
    }
    sealed_.erase(sealed_.begin());
    removed = true;
    if (CrashFires(options_.crash, "trunc.after_unlink")) {
      return SimulatedCrash("trunc.after_unlink");
    }
  }
  if (!removed) return Status::OK();
  if (CrashFires(options_.crash, "trunc.before_dirsync")) {
    return SimulatedCrash("trunc.before_dirsync");
  }
  return SyncDir(dir_);
}

size_t SegmentedFileSink::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_.size() + 1;
}

Lsn SegmentedFileSink::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

Status ForEachSegmentedEntry(
    const std::string& dir, Lsn after_lsn,
    const std::function<Status(Lsn, Journal::Entry&&)>& fn,
    SegmentScanReport* report) {
  SegmentScanReport local;
  StatusOr<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListSegments(dir);
  if (!segments.ok()) return segments.status();

  Lsn expected = 0;  // 0 until the first intact header establishes it
  for (size_t i = 0; i < segments->size(); ++i) {
    const bool final_segment = i + 1 == segments->size();
    const std::string& path = (*segments)[i].second;
    StatusOr<std::string> image_or = ReadFileImage(path);
    if (!image_or.ok()) return image_or.status();
    const std::string& image = *image_or;
    ++local.segments;

    uint32_t header_len = 0;
    if (!IntactJournalFrameAt(image, 0, &header_len)) {
      // No intact header. In the final segment this is the rotation-crash
      // artifact (file created, header torn/unwritten) — provided no
      // durable frame follows the damage. Anywhere else it is mid-journal
      // corruption.
      if (final_segment && !IntactJournalFrameAfter(image, 0)) {
        ++local.artifacts_ignored;
        continue;
      }
      return Status::Internal(StrFormat(
          "segment %s has no intact header frame", path.c_str()));
    }
    StatusOr<Lsn> first_lsn = DecodeSegmentHeader(
        image.substr(kJournalFrameHeaderSize, header_len));
    if (!first_lsn.ok()) return first_lsn.status();
    if (expected == 0) {
      // First surviving segment: truncation may have deleted anything
      // wholly covered by the checkpoint, but a gap past the anchor means
      // records were lost.
      if (*first_lsn > after_lsn + 1) {
        return Status::Internal(StrFormat(
            "segment %s starts at LSN %llu but the checkpoint covers only "
            "up to %llu — a segment with live records was deleted",
            path.c_str(), static_cast<unsigned long long>(*first_lsn),
            static_cast<unsigned long long>(after_lsn)));
      }
    } else if (*first_lsn != expected) {
      return Status::Internal(StrFormat(
          "segment %s starts at LSN %llu, expected %llu — the segment "
          "sequence is not contiguous",
          path.c_str(), static_cast<unsigned long long>(*first_lsn),
          static_cast<unsigned long long>(expected)));
    }
    expected = *first_lsn;

    size_t offset = kJournalFrameHeaderSize + header_len;
    while (offset < image.size()) {
      uint32_t len = 0;
      bool damaged = !IntactJournalFrameAt(image, offset, &len);
      if (!damaged && expected > after_lsn) {
        StatusOr<Journal::Entry> decoded = DecodeEntryPayload(
            std::string_view(image).substr(
                offset + kJournalFrameHeaderSize, len));
        if (decoded.ok()) {
          CCR_RETURN_IF_ERROR(fn(expected, std::move(*decoded)));
          ++local.records;
        } else {
          damaged = true;
        }
      } else if (!damaged) {
        // Covered by the checkpoint: CRC already validated, skip the
        // decode — restart pays only for the tail.
        ++local.records_skipped;
      }
      if (damaged) {
        if (!final_segment || IntactJournalFrameAfter(image, offset)) {
          return Status::Internal(StrFormat(
              "journal corrupt mid-image: damaged record at byte %zu of %s "
              "is followed by durable data", offset, path.c_str()));
        }
        local.bytes_truncated = image.size() - offset;
        local.corrupt_tail = true;
        offset = image.size();
        break;
      }
      ++expected;
      offset += kJournalFrameHeaderSize + len;
    }
  }
  if (report != nullptr) *report = local;
  return Status::OK();
}

Status ForEachSegmentedRecord(
    const std::string& dir, Lsn after_lsn,
    const std::function<Status(Lsn, Journal::CommitRecord&&)>& fn,
    SegmentScanReport* report) {
  return ForEachSegmentedEntry(
      dir, after_lsn,
      [&fn](Lsn lsn, Journal::Entry&& entry) {
        if (entry.is_lifecycle) return Status::OK();
        return fn(lsn, std::move(entry.commit));
      },
      report);
}

}  // namespace ccr
