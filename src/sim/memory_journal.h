// Copyright 2026 The ccr Authors.
//
// A journal whose records can be read back, for tests, benches and the
// crash harness: a kSync GroupCommitPipeline over a MemorySink, so every
// record is on the in-memory "disk" when its append returns, and Decode()
// scans that image. The engine's Journal is only the LSN sequencer and
// keeps no records; what a run journaled is read from the disk it wrote.

#ifndef CCR_SIM_MEMORY_JOURNAL_H_
#define CCR_SIM_MEMORY_JOURNAL_H_

#include "common/macros.h"
#include "txn/group_commit.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"

namespace ccr {

struct MemoryJournal {
  MemorySink sink;
  JournalWriter writer{&sink};
  GroupCommitPipeline pipeline;
  Journal journal;

  // `base`: the LSN space continues after it (a post-restart journal).
  explicit MemoryJournal(Lsn base = 0)
      : pipeline(&writer, GroupCommitOptions{.mode = DurabilityMode::kSync,
                                             .first_lsn = base + 1}) {
    journal.set_base_lsn(base);
    journal.set_pipeline(&pipeline);
  }

  // The image decoded. kSync writes whole frames, so the scan must be
  // clean.
  DecodedJournal Decode() const {
    RecoveryReport report;
    StatusOr<DecodedJournal> decoded = ScanJournalImage(sink.image(), &report);
    CCR_CHECK_MSG(decoded.ok() && !report.corrupt_tail,
                  "memory journal image does not decode cleanly");
    return std::move(*decoded);
  }
};

}  // namespace ccr

#endif  // CCR_SIM_MEMORY_JOURNAL_H_
