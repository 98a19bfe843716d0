// Copyright 2026 The ccr Authors.
//
// Durable on-disk format of the redo journal. Each commit record is framed
// as
//
//   [u32 payload_size][u32 crc32c(payload)][payload bytes]
//
// with both integers little-endian. The payload is textual, reusing the
// operation/value encoding of core/history_io: a first line naming the
// committing transaction, then one line per operation in the record's
// (response/intentions) order:
//
//   txn <id>
//   op <object> <code> <name> <result-literal> [arg-literals...]
//
// The CRC covers the payload only; the length prefix is validated
// structurally (a frame must fit inside the image). A record's frame
// reaching the disk in full, checksum intact, IS the transaction's
// durability point at that object.
//
// Crash images are scanned with a torn-tail truncation rule:
//
//   * a record whose frame runs past the end of the image, or whose
//     checksum fails, ends the valid prefix;
//   * if no intact record exists anywhere after the failure point, the
//     failure is a torn/corrupt *tail* — the write the crash interrupted
//     (or bit rot on the final record). Its transaction never reached its
//     durability point; the tail is truncated and reported, and recovery
//     proceeds from the valid prefix;
//   * if an intact record DOES follow, the journal is corrupt in the
//     middle — a prefix that was once durable has been damaged, which no
//     truncation rule can repair honestly. The scan rejects the image
//     (kInternal) instead of silently dropping committed transactions.

#ifndef CCR_TXN_JOURNAL_FORMAT_H_
#define CCR_TXN_JOURNAL_FORMAT_H_

#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "txn/journal.h"

namespace ccr {

// Frame header: u32 payload size + u32 crc32c.
inline constexpr size_t kJournalFrameHeaderSize = 8;

// Frames an arbitrary payload in the journal's [len][crc][payload] format.
// Used for commit records, journal segment headers, and store frames alike
// — one checksummed container format for everything durable.
std::string FrameBlob(std::string_view payload);

// True iff an intact frame (in-bounds length, matching checksum) starts at
// `pos` of `image`; `payload_len` (optional) receives its payload size.
bool IntactJournalFrameAt(std::string_view image, size_t pos,
                          uint32_t* payload_len);

// True iff an intact frame starts anywhere strictly after `from` — the
// probe that distinguishes a torn tail from mid-journal corruption.
bool IntactJournalFrameAfter(std::string_view image, size_t from);

// The textual payload of one commit record (no frame).
std::string EncodeCommitPayload(const Journal::CommitRecord& record);

// Inverse of EncodeCommitPayload. kInvalidArgument on malformed payloads
// (only reachable through writer bugs or checksum collisions — the scanner
// verifies the CRC first).
StatusOr<Journal::CommitRecord> DecodeCommitPayload(std::string_view payload);

// The full framed bytes of one commit record as the writer appends them.
std::string EncodeCommitRecord(const Journal::CommitRecord& record);

// The textual payload of one object-lifecycle record:
//
//   create <object> <factory>
//   drop <object>
//
// Object ids and factory names must be whitespace-free (the same rule the
// commit payload's op lines and the checkpoint image already impose);
// creates must name a non-empty factory — a create that no factory can
// replay would be unrecoverable by construction.
std::string EncodeLifecyclePayload(const LifecycleRecord& record);

// Inverse of EncodeLifecyclePayload.
StatusOr<LifecycleRecord> DecodeLifecyclePayload(std::string_view payload);

// The textual payload of one journal entry (commit or lifecycle) and its
// framed bytes. Decode dispatches on the payload's first token ("txn",
// "create", "drop").
std::string EncodeEntryPayload(const Journal::Entry& entry);
StatusOr<Journal::Entry> DecodeEntryPayload(std::string_view payload);
std::string EncodeEntryRecord(const Journal::Entry& entry);

// What a crash image scan found and did.
struct RecoveryReport {
  size_t records_replayed = 0;  // intact records in the valid prefix
  size_t bytes_truncated = 0;   // tail bytes dropped by the truncation rule
  bool corrupt_tail = false;    // true iff a torn/corrupt tail was dropped

  std::string ToString() const;
};

// Streams the entries (commit + lifecycle records) of a crash image in
// order, applying the torn-tail truncation rule above, without
// materializing more than one decoded entry at a time — restart memory
// stays bounded by one entry instead of the whole journal. `fn` returning
// non-OK aborts the scan with that error; mid-journal corruption returns
// kInternal; a truncated tail is reported, not an error. `report`
// (optional) receives the outcome of a completed scan.
Status ForEachJournalEntry(
    std::string_view image,
    const std::function<Status(Journal::Entry&&)>& fn,
    RecoveryReport* report);

// Scans a journal image as found after a crash and returns the valid
// prefix decoded, applying the torn-tail truncation rule above. `report`
// (optional) receives what happened. Mid-journal corruption — an intact
// record after a damaged one — returns kInternal. (Materializes every
// record; restart paths stream with ForEachJournalEntry.)
StatusOr<DecodedJournal> ScanJournalImage(std::string_view image,
                                          RecoveryReport* report);

}  // namespace ccr

#endif  // CCR_TXN_JOURNAL_FORMAT_H_
