// Copyright 2026 The ccr Authors.

#include "txn/journal.h"

#include "common/macros.h"
#include "txn/group_commit.h"

namespace ccr {

void Journal::set_base_lsn(Lsn base) {
  std::lock_guard<std::mutex> lock(mu_);
  CCR_CHECK_MSG(sequenced_ == 0,
                "set_base_lsn on a journal that already has records");
  base_lsn_ = base;
}

Lsn Journal::high_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_lsn_ + sequenced_;
}

Lsn Journal::AppendEntry(Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pipeline_ == nullptr) return kNoLsn;
  // Sequence under the journal mutex, so the pipeline's LSN order is the
  // journal's (the pipeline's counter is asserted against ours).
  const Lsn lsn = base_lsn_ + ++sequenced_;
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

void DecodedJournal::ForEachRecord(
    const std::function<void(const Journal::CommitRecord&)>& fn) const {
  for (const Journal::Entry& entry : entries) {
    if (!entry.is_lifecycle) fn(entry.commit);
  }
}

namespace {

void Replay(const Adt& adt, const OpSeq& ops, TxnId txn,
            std::unique_ptr<SpecState>* state) {
  for (const Operation& op : ops) {
    auto nexts = adt.spec().Next(**state, op);
    CCR_CHECK_MSG(nexts.size() == 1, "journal replay stuck at %s of %s",
                  op.ToString().c_str(), TxnName(txn).c_str());
    *state = std::move(nexts[0]);
  }
}

}  // namespace

std::unique_ptr<SpecState> RecoverState(const Adt& adt, const OpSeq& ops) {
  std::unique_ptr<SpecState> state = adt.spec().InitialState();
  Replay(adt, ops, kInvalidTxn, &state);
  return state;
}

std::unique_ptr<SpecState> RecoverState(const Adt& adt,
                                        const DecodedJournal& image) {
  std::unique_ptr<SpecState> state = adt.spec().InitialState();
  image.ForEachRecord([&](const Journal::CommitRecord& record) {
    Replay(adt, record.ops, record.txn, &state);
  });
  return state;
}

}  // namespace ccr
