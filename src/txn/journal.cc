// Copyright 2026 The ccr Authors.

#include "txn/journal.h"

#include "common/macros.h"
#include "txn/group_commit.h"

namespace ccr {

void Journal::set_base_lsn(Lsn base) {
  std::lock_guard<std::mutex> lock(mu_);
  CCR_CHECK_MSG(entries_.empty(),
                "set_base_lsn on a journal that already has records");
  base_lsn_ = base;
}

Lsn Journal::high_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_lsn_ + static_cast<Lsn>(entries_.size());
}

Lsn Journal::base_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_lsn_;
}

Lsn Journal::AppendEntry(Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pipeline_ == nullptr) {
    entries_.push_back(std::move(entry));
    return kNoLsn;
  }
  // Sequence: copy into the volatile view, hand the original to the
  // pipeline. Called under the journal mutex, so the pipeline's LSN order
  // equals entries_ order (the pipeline's counter is asserted against
  // ours).
  const Lsn lsn = base_lsn_ + static_cast<Lsn>(entries_.size()) + 1;
  entries_.push_back(entry);
  const Lsn sequenced = pipeline_->Sequence(std::move(entry));
  CCR_CHECK_MSG(sequenced == lsn,
                "pipeline LSN %llu diverged from journal LSN %llu — the "
                "pipeline is shared with another journal",
                static_cast<unsigned long long>(sequenced),
                static_cast<unsigned long long>(lsn));
  return lsn;
}

Lsn Journal::AppendCommit(TxnId txn, OpSeq ops) {
  return AppendEntry(Entry::Commit(txn, std::move(ops)));
}

Lsn Journal::AppendLifecycle(LifecycleRecord record) {
  return AppendEntry(Entry::Lifecycle(std::move(record)));
}

std::vector<Journal::CommitRecord> Journal::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CommitRecord> records;
  records.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    if (!entry.is_lifecycle) records.push_back(entry.commit);
  }
  return records;
}

std::vector<Journal::Entry> Journal::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

void Journal::ForEachRecord(
    const std::function<void(const CommitRecord&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& entry : entries_) {
    if (!entry.is_lifecycle) fn(entry.commit);
  }
}

void Journal::ForEachEntry(
    const std::function<void(Lsn, const Entry&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  Lsn lsn = base_lsn_;
  for (const Entry& entry : entries_) fn(++lsn, entry);
}

size_t Journal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Journal Journal::Prefix(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> kept;
  for (size_t i = 0; i < n && i < entries_.size(); ++i) {
    kept.push_back(entries_[i]);
  }
  return Journal(std::move(kept));
}

std::unique_ptr<SpecState> RecoverState(const Adt& adt,
                                        const Journal& journal) {
  std::unique_ptr<SpecState> state = adt.spec().InitialState();
  // Visitation, not Records(): the crash-at-every-prefix audits call this
  // per prefix, and a deep copy per call made them O(n²) in journal bytes.
  journal.ForEachRecord([&](const Journal::CommitRecord& record) {
    for (const Operation& op : record.ops) {
      auto nexts = adt.spec().Next(*state, op);
      CCR_CHECK_MSG(nexts.size() == 1,
                    "journal replay stuck at %s of %s",
                    op.ToString().c_str(), TxnName(record.txn).c_str());
      state = std::move(nexts[0]);
    }
  });
  return state;
}

}  // namespace ccr
