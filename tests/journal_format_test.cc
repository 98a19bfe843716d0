// Copyright 2026 The ccr Authors.
//
// Unit tests for the durable journal's record format and crash-image
// scanner: frame round-trips, CRC32C vectors, torn-write truncation at
// every byte offset, and the tail-vs-mid-journal corruption distinction.

#include <gtest/gtest.h>

#include "adt/bank_account.h"
#include "adt/kv_store.h"
#include "common/crc32c.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"

namespace ccr {
namespace {

Operation Op(const Invocation& inv, Value result) {
  return Operation(inv, std::move(result));
}

// A few records with every value flavor the payload encoding must carry:
// ints (args), strings (withdraw results, kv keys), unit (deposit results).
std::vector<Journal::CommitRecord> SampleRecords() {
  auto ba = MakeBankAccount();
  auto kv = MakeKvStore();
  std::vector<Journal::CommitRecord> records;
  records.push_back(
      {1, {Op(ba->DepositInv(10), Value("ok")), Op(ba->BalanceInv(), Value(int64_t{10}))}});
  records.push_back({2, {Op(ba->WithdrawInv(3), Value("ok"))}});
  records.push_back(
      {3, {Op(kv->PutInv("alpha", -7), Value("ok")), Op(kv->GetInv("alpha"), Value(int64_t{-7}))}});
  return records;
}

std::string ImageOf(const std::vector<Journal::CommitRecord>& records) {
  std::string image;
  for (const auto& record : records) image += EncodeCommitRecord(record);
  return image;
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / iSCSI test vectors.
  EXPECT_EQ(Crc32c("", 0), 0u);
  const uint8_t zeros[32] = {};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8a9136aau);
  uint8_t ones[32];
  for (uint8_t& b : ones) b = 0xff;
  EXPECT_EQ(Crc32c(ones, sizeof(ones)), 0x62a8ab43u);
  uint8_t ascending[32];
  for (size_t i = 0; i < 32; ++i) ascending[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(ascending, sizeof(ascending)), 0x46dd794eu);
}

TEST(Crc32cTest, ExtendComposes) {
  const std::string data = "the impact of recovery on concurrency control";
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t whole = Crc32c(data.data(), data.size());
    const uint32_t pieced = Crc32cExtend(
        Crc32c(data.data(), split), data.data() + split, data.size() - split);
    EXPECT_EQ(whole, pieced) << "split at " << split;
  }
}

TEST(JournalFormatTest, PayloadRoundTrips) {
  for (const Journal::CommitRecord& record : SampleRecords()) {
    StatusOr<Journal::CommitRecord> decoded =
        DecodeCommitPayload(EncodeCommitPayload(record));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->txn, record.txn);
    EXPECT_EQ(decoded->ops, record.ops);
  }
}

TEST(JournalFormatTest, MalformedPayloadsRejected) {
  EXPECT_FALSE(DecodeCommitPayload("").ok());
  EXPECT_FALSE(DecodeCommitPayload("nonsense 1\n").ok());
  EXPECT_FALSE(DecodeCommitPayload("txn 0\n").ok());  // invalid txn id
  EXPECT_FALSE(DecodeCommitPayload("txn 1\nop BA\n").ok());
  EXPECT_FALSE(DecodeCommitPayload("txn 1\nop BA 0 deposit\n").ok());
  EXPECT_FALSE(DecodeCommitPayload("txn 1\nop BA 0 deposit q:7\n").ok());
}

TEST(JournalFormatTest, CleanImageScans) {
  const auto records = SampleRecords();
  RecoveryReport report;
  StatusOr<DecodedJournal> scanned = ScanJournalImage(ImageOf(records), &report);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(report.records_replayed, records.size());
  EXPECT_EQ(report.bytes_truncated, 0u);
  EXPECT_FALSE(report.corrupt_tail);
  const std::vector<Journal::Entry>& out = scanned->entries;
  ASSERT_EQ(out.size(), records.size());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_FALSE(out[i].is_lifecycle);
    EXPECT_EQ(out[i].commit.txn, records[i].txn);
    EXPECT_EQ(out[i].commit.ops, records[i].ops);
  }
}

TEST(JournalFormatTest, EmptyImageScansToEmptyJournal) {
  RecoveryReport report;
  StatusOr<DecodedJournal> scanned = ScanJournalImage("", &report);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->entries.size(), 0u);
  EXPECT_EQ(report.bytes_truncated, 0u);
  EXPECT_FALSE(report.corrupt_tail);
}

// A crash can cut the image at ANY byte offset inside the final record;
// every cut must truncate exactly that record and keep the full prefix.
TEST(JournalFormatTest, TornTailTruncatedAtEveryByteOffset) {
  const auto records = SampleRecords();
  const std::string image = ImageOf(records);
  const size_t prefix_bytes =
      image.size() - EncodeCommitRecord(records.back()).size();
  for (size_t cut = prefix_bytes + 1; cut < image.size(); ++cut) {
    RecoveryReport report;
    StatusOr<DecodedJournal> scanned =
        ScanJournalImage(std::string_view(image).substr(0, cut), &report);
    ASSERT_TRUE(scanned.ok()) << "cut at " << cut;
    EXPECT_EQ(report.records_replayed, records.size() - 1) << "cut " << cut;
    EXPECT_EQ(report.bytes_truncated, cut - prefix_bytes) << "cut " << cut;
    EXPECT_TRUE(report.corrupt_tail) << "cut " << cut;
    EXPECT_EQ(scanned->entries.size(), records.size() - 1);
  }
}

// Flipping any byte of the LAST record is tail corruption: the record's
// transaction never safely reached durability, so the tail truncates.
TEST(JournalFormatTest, CorruptTailByteTruncates) {
  const auto records = SampleRecords();
  const std::string image = ImageOf(records);
  const size_t tail_start =
      image.size() - EncodeCommitRecord(records.back()).size();
  for (size_t off = tail_start; off < image.size(); ++off) {
    std::string corrupted = image;
    FlipByte(&corrupted, off, 0x20);
    RecoveryReport report;
    StatusOr<DecodedJournal> scanned = ScanJournalImage(corrupted, &report);
    ASSERT_TRUE(scanned.ok()) << "flip at " << off;
    EXPECT_EQ(report.records_replayed, records.size() - 1) << "flip " << off;
    EXPECT_TRUE(report.corrupt_tail) << "flip " << off;
  }
}

// Flipping a byte of a NON-last record damages a prefix that was already
// durable — no truncation rule can repair that honestly, so the scan must
// reject the image loudly instead of silently dropping committed work.
TEST(JournalFormatTest, MidJournalCorruptionRejected) {
  const auto records = SampleRecords();
  const std::string image = ImageOf(records);
  const size_t mid_bytes = EncodeCommitRecord(records[0]).size() +
                           EncodeCommitRecord(records[1]).size();
  for (size_t off = 0; off < mid_bytes; ++off) {
    std::string corrupted = image;
    FlipByte(&corrupted, off, 0x20);
    RecoveryReport report;
    StatusOr<DecodedJournal> scanned = ScanJournalImage(corrupted, &report);
    ASSERT_FALSE(scanned.ok()) << "flip at " << off;
    EXPECT_EQ(scanned.status().code(), StatusCode::kInternal);
  }
}

TEST(JournalFormatTest, PureGarbageIsAllTail) {
  // An image of garbage contains no durable prefix: scan succeeds with
  // zero records and everything truncated.
  std::string garbage(257, '\xa5');
  RecoveryReport report;
  StatusOr<DecodedJournal> scanned = ScanJournalImage(garbage, &report);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(report.records_replayed, 0u);
  EXPECT_EQ(report.bytes_truncated, garbage.size());
  EXPECT_TRUE(report.corrupt_tail);
}

TEST(JournalIoTest, WriterRoundTripsThroughMemorySink) {
  const auto records = SampleRecords();
  MemorySink sink;
  JournalWriter writer(&sink);
  for (const auto& record : records) {
    ASSERT_TRUE(writer.Append(record).ok());
  }
  EXPECT_EQ(writer.records_appended(), records.size());
  EXPECT_EQ(writer.bytes_written(), sink.image().size());
  RecoveryReport report;
  StatusOr<DecodedJournal> scanned = ScanJournalImage(sink.image(), &report);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->entries.size(), records.size());
  // Record boundaries bracket the image.
  EXPECT_EQ(writer.boundary(0), 0u);
  EXPECT_EQ(writer.boundary(records.size()), sink.image().size());
}

TEST(JournalIoTest, WriterRoundTripsThroughFileSink) {
  const auto records = SampleRecords();
  const std::string path =
      ::testing::TempDir() + "/ccr_journal_format_test.wal";
  {
    StatusOr<std::unique_ptr<FileSink>> sink = FileSink::Open(path);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    JournalWriter writer(sink->get());
    for (const auto& record : records) {
      ASSERT_TRUE(writer.Append(record).ok());
    }
  }
  StatusOr<std::string> image = ReadFileImage(path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  RecoveryReport report;
  StatusOr<DecodedJournal> scanned = ScanJournalImage(*image, &report);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->entries.size(), records.size());
  EXPECT_FALSE(report.corrupt_tail);
  std::remove(path.c_str());
}

TEST(JournalIoTest, CrashAtRecordDropsSuffix) {
  const auto records = SampleRecords();
  for (size_t crash = 0; crash <= records.size(); ++crash) {
    MemorySink sink;
    JournalWriter writer(&sink, FaultInjector::CrashAtRecord(crash));
    for (const auto& record : records) {
      ASSERT_TRUE(writer.Append(record).ok());
    }
    EXPECT_EQ(writer.records_appended(), std::min(crash, records.size()));
    RecoveryReport report;
    StatusOr<DecodedJournal> scanned = ScanJournalImage(sink.image(), &report);
    ASSERT_TRUE(scanned.ok());
    EXPECT_EQ(report.records_replayed, std::min(crash, records.size()));
    EXPECT_FALSE(report.corrupt_tail);  // boundary crash: clean prefix
  }
}

TEST(JournalIoTest, TornRecordTruncatesAtRecovery) {
  const auto records = SampleRecords();
  for (size_t torn = 0; torn < records.size(); ++torn) {
    const size_t encoded_size = EncodeCommitRecord(records[torn]).size();
    for (size_t keep : {size_t{1}, kJournalFrameHeaderSize - 1,
                        kJournalFrameHeaderSize + 1, encoded_size - 1}) {
      MemorySink sink;
      JournalWriter writer(&sink, FaultInjector::TearRecord(torn, keep));
      for (const auto& record : records) {
        ASSERT_TRUE(writer.Append(record).ok());
      }
      RecoveryReport report;
      StatusOr<DecodedJournal> scanned = ScanJournalImage(sink.image(), &report);
      ASSERT_TRUE(scanned.ok()) << "torn " << torn << " keep " << keep;
      EXPECT_EQ(report.records_replayed, torn);
      EXPECT_EQ(report.bytes_truncated, std::min(keep, encoded_size));
      EXPECT_TRUE(report.corrupt_tail);
    }
  }
}

}  // namespace
}  // namespace ccr
