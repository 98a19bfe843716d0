// Copyright 2026 The ccr Authors.

#include "txn/journal_format.h"

#include <sstream>

#include "common/crc32c.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "core/history_io.h"

namespace ccr {
namespace {

void AppendLe32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

uint32_t ReadLe32(std::string_view image, size_t pos) {
  return static_cast<uint32_t>(static_cast<uint8_t>(image[pos])) |
         (static_cast<uint32_t>(static_cast<uint8_t>(image[pos + 1])) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(image[pos + 2])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(image[pos + 3])) << 24);
}

}  // namespace

// True iff an intact frame (in-bounds length, matching checksum) starts at
// `pos`. Decodability of the payload is checked separately by the scanner.
bool IntactJournalFrameAt(std::string_view image, size_t pos,
                          uint32_t* payload_len) {
  if (pos + kJournalFrameHeaderSize > image.size()) return false;
  const uint32_t len = ReadLe32(image, pos);
  if (len > image.size() - pos - kJournalFrameHeaderSize) return false;
  if (Crc32c(image.data() + pos + kJournalFrameHeaderSize, len) !=
      ReadLe32(image, pos + 4)) {
    return false;
  }
  if (payload_len != nullptr) *payload_len = len;
  return true;
}

// True iff an intact frame starts anywhere strictly after `from`. Used to
// tell a torn/corrupt tail (no durable data follows — truncate) from
// mid-journal corruption (durable data follows — reject). The byte-by-byte
// probe is O(tail²) in the worst case, but runs only on damaged images and
// a false positive needs a 2^-32 checksum collision inside garbage.
bool IntactJournalFrameAfter(std::string_view image, size_t from) {
  for (size_t pos = from + 1;
       pos + kJournalFrameHeaderSize <= image.size(); ++pos) {
    if (IntactJournalFrameAt(image, pos, nullptr)) return true;
  }
  return false;
}

std::string FrameBlob(std::string_view payload) {
  std::string out;
  out.reserve(kJournalFrameHeaderSize + payload.size());
  AppendLe32(&out, static_cast<uint32_t>(payload.size()));
  AppendLe32(&out, Crc32c(payload.data(), payload.size()));
  out.append(payload.data(), payload.size());
  return out;
}

std::string EncodeCommitPayload(const Journal::CommitRecord& record) {
  std::string out =
      StrFormat("txn %llu\n", static_cast<unsigned long long>(record.txn));
  for (const Operation& op : record.ops) {
    out += StrFormat("op %s %d %s %s", op.object().c_str(), op.code(),
                     op.name().c_str(), SerializeValue(op.result()).c_str());
    for (const Value& arg : op.args()) {
      out += ' ';
      out += SerializeValue(arg);
    }
    out += '\n';
  }
  return out;
}

StatusOr<Journal::CommitRecord> DecodeCommitPayload(std::string_view payload) {
  std::istringstream lines{std::string(payload)};
  std::string line;
  if (!std::getline(lines, line)) {
    return Status::InvalidArgument("empty commit payload");
  }
  std::istringstream first(line);
  std::string tag;
  unsigned long long txn_raw = 0;
  if (!(first >> tag >> txn_raw) || tag != "txn" || txn_raw == 0) {
    return Status::InvalidArgument("commit payload must start 'txn <id>'");
  }
  Journal::CommitRecord record{static_cast<TxnId>(txn_raw), {}};
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string op_tag;
    ObjectId object;
    int code = 0;
    std::string name;
    std::string token;
    if (!(fields >> op_tag >> object >> code >> name) || op_tag != "op") {
      return Status::InvalidArgument("malformed op line: " + line);
    }
    if (!(fields >> token)) {
      return Status::InvalidArgument("op line missing result: " + line);
    }
    StatusOr<Value> result = ParseValue(token);
    if (!result.ok()) return result.status();
    std::vector<Value> args;
    while (fields >> token) {
      StatusOr<Value> arg = ParseValue(token);
      if (!arg.ok()) return arg.status();
      args.push_back(std::move(*arg));
    }
    record.ops.emplace_back(
        Invocation(std::move(object), code, std::move(name), std::move(args)),
        std::move(*result));
  }
  return record;
}

std::string EncodeCommitRecord(const Journal::CommitRecord& record) {
  return FrameBlob(EncodeCommitPayload(record));
}

std::string EncodeLifecyclePayload(const LifecycleRecord& record) {
  CCR_CHECK_MSG(record.object.find_first_of(" \t\n") == std::string::npos,
                "lifecycle record object id '%s' contains whitespace",
                record.object.c_str());
  if (record.kind == LifecycleRecord::Kind::kCreate) {
    CCR_CHECK_MSG(!record.factory.empty() &&
                      record.factory.find_first_of(" \t\n") ==
                          std::string::npos,
                  "create record for '%s' needs a whitespace-free factory "
                  "name (got '%s')",
                  record.object.c_str(), record.factory.c_str());
    return StrFormat("create %s %s\n", record.object.c_str(),
                     record.factory.c_str());
  }
  return StrFormat("drop %s\n", record.object.c_str());
}

StatusOr<LifecycleRecord> DecodeLifecyclePayload(std::string_view payload) {
  std::istringstream fields{std::string(payload)};
  std::string tag;
  LifecycleRecord record;
  if (!(fields >> tag >> record.object) || record.object.empty()) {
    return Status::InvalidArgument("malformed lifecycle payload");
  }
  std::string extra;
  if (tag == "create") {
    record.kind = LifecycleRecord::Kind::kCreate;
    if (!(fields >> record.factory) || record.factory.empty()) {
      return Status::InvalidArgument("create record missing factory name");
    }
  } else if (tag == "drop") {
    record.kind = LifecycleRecord::Kind::kDrop;
  } else {
    return Status::InvalidArgument("unknown lifecycle tag: " + tag);
  }
  if (fields >> extra) {
    return Status::InvalidArgument("trailing tokens in lifecycle payload");
  }
  return record;
}

std::string EncodeEntryPayload(const Journal::Entry& entry) {
  return entry.is_lifecycle ? EncodeLifecyclePayload(entry.lifecycle)
                            : EncodeCommitPayload(entry.commit);
}

StatusOr<Journal::Entry> DecodeEntryPayload(std::string_view payload) {
  const size_t tag_end = payload.find_first_of(" \t\n");
  const std::string_view tag = payload.substr(0, tag_end);
  if (tag == "create" || tag == "drop") {
    StatusOr<LifecycleRecord> lifecycle = DecodeLifecyclePayload(payload);
    if (!lifecycle.ok()) return lifecycle.status();
    return Journal::Entry::Lifecycle(std::move(*lifecycle));
  }
  StatusOr<Journal::CommitRecord> commit = DecodeCommitPayload(payload);
  if (!commit.ok()) return commit.status();
  return Journal::Entry::Commit(commit->txn, std::move(commit->ops));
}

std::string EncodeEntryRecord(const Journal::Entry& entry) {
  return FrameBlob(EncodeEntryPayload(entry));
}

std::string RecoveryReport::ToString() const {
  return StrFormat("replayed=%zu truncated=%zuB corrupt_tail=%s",
                   records_replayed, bytes_truncated,
                   corrupt_tail ? "yes" : "no");
}

Status ForEachJournalEntry(
    std::string_view image,
    const std::function<Status(Journal::Entry&&)>& fn,
    RecoveryReport* report) {
  RecoveryReport local;
  size_t offset = 0;
  while (offset < image.size()) {
    uint32_t len = 0;
    bool damaged = !IntactJournalFrameAt(image, offset, &len);
    if (!damaged) {
      StatusOr<Journal::Entry> decoded = DecodeEntryPayload(
          image.substr(offset + kJournalFrameHeaderSize, len));
      damaged = !decoded.ok();
      if (!damaged) {
        CCR_RETURN_IF_ERROR(fn(std::move(*decoded)));
        ++local.records_replayed;
        offset += kJournalFrameHeaderSize + len;
      }
    }
    if (damaged) {
      if (IntactJournalFrameAfter(image, offset)) {
        return Status::Internal(StrFormat(
            "journal corrupt mid-image: damaged record at byte %zu is "
            "followed by an intact one — a durable prefix was damaged",
            offset));
      }
      // The failure is the tail the crash (or bit rot) interrupted: that
      // transaction never reached its durability point, so truncating it
      // recovers exactly the committed prefix.
      local.bytes_truncated = image.size() - offset;
      local.corrupt_tail = true;
      break;
    }
  }
  if (report != nullptr) *report = local;
  return Status::OK();
}

StatusOr<DecodedJournal> ScanJournalImage(std::string_view image,
                                          RecoveryReport* report) {
  DecodedJournal decoded;
  CCR_RETURN_IF_ERROR(ForEachJournalEntry(
      image,
      [&decoded](Journal::Entry&& entry) {
        decoded.entries.push_back(std::move(entry));
        return Status::OK();
      },
      report));
  return decoded;
}

}  // namespace ccr
