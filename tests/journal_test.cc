// Copyright 2026 The ccr Authors.
//
// Crash-recovery tests for the redo journal (the paper's deferred future
// work): after any crash point, replaying the journal rebuilds exactly the
// state of the committed prefix — under both recovery methods, with aborts
// interleaved, and under concurrency. Each test journals onto an in-memory
// disk (MemoryJournal) and replays the decoded image.

#include <thread>

#include <gtest/gtest.h>

#include "adt/bank_account.h"
#include "adt/int_set.h"
#include "common/random.h"
#include "sim/memory_journal.h"
#include "txn/du_recovery.h"
#include "txn/journal.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

int64_t BalanceOf(const SpecState& state) {
  return TypedSpecAutomaton<Int64State>::Unwrap(state).v;
}

enum class Method { kUip, kDu };

class JournalTest : public ::testing::TestWithParam<Method> {
 protected:
  std::unique_ptr<RecoveryManager> MakeRecovery(
      std::shared_ptr<const Adt> adt) {
    if (GetParam() == Method::kUip) {
      return std::make_unique<UipRecovery>(adt);
    }
    return std::make_unique<DuRecovery>(adt);
  }

  std::shared_ptr<const ConflictRelation> MakeConflict(
      std::shared_ptr<Adt> adt) {
    if (GetParam() == Method::kUip) return MakeNrbcConflict(adt);
    return MakeNfcConflict(adt);
  }
};

TEST_P(JournalTest, RecoversCommittedStateExactly) {
  auto ba = MakeBankAccount();
  MemoryJournal journal;
  TxnManager manager;
  AtomicObject* obj = manager.AddObject("BA", ba, MakeConflict(ba),
                                        MakeRecovery(ba));
  obj->recovery().set_journal(&journal.journal);

  Random rng(7);
  for (int i = 0; i < 50; ++i) {
    const bool doomed = rng.Bernoulli(0.3);
    Status s = manager.RunTransaction([&](Transaction* txn) -> Status {
      const int64_t amount = rng.UniformRange(1, 9);
      const Invocation inv = rng.Bernoulli(0.6) ? ba->DepositInv(amount)
                                                : ba->WithdrawInv(amount);
      StatusOr<Value> r = manager.Execute(txn, inv);
      if (!r.ok()) return r.status();
      if (doomed) return Status::Aborted("injected");
      return Status::OK();
    });
    ASSERT_TRUE(s.ok() || s.code() == StatusCode::kAborted);
  }

  // Crash now: everything volatile is gone; only the journal survives.
  auto recovered = RecoverState(*ba, journal.Decode());
  auto live = obj->CommittedState();
  EXPECT_TRUE(recovered->Equals(*live))
      << "recovered " << recovered->ToString() << ", live "
      << live->ToString();
}

TEST_P(JournalTest, AbortedTransactionsNeverReachTheJournal) {
  auto ba = MakeBankAccount();
  MemoryJournal journal;
  TxnManager manager;
  AtomicObject* obj = manager.AddObject("BA", ba, MakeConflict(ba),
                                        MakeRecovery(ba));
  obj->recovery().set_journal(&journal.journal);

  auto doomed = manager.Begin();
  ASSERT_TRUE(manager.Execute(doomed.get(), ba->DepositInv(999)).ok());
  ASSERT_TRUE(manager.Abort(doomed.get()).ok());
  EXPECT_TRUE(journal.Decode().entries.empty());

  ASSERT_TRUE(manager
                  .RunTransaction([&](Transaction* txn) {
                    return manager.Execute(txn, ba->DepositInv(5)).status();
                  })
                  .ok());
  ASSERT_EQ(journal.Decode().entries.size(), 1u);
  EXPECT_EQ(BalanceOf(*RecoverState(*ba, journal.Decode())), 5);
}

// Every crash point (journal prefix) recovers to a legal committed state:
// the state after exactly the first n committed transactions.
TEST_P(JournalTest, EveryPrefixIsAConsistentCrashPoint) {
  auto ba = MakeBankAccount();
  MemoryJournal journal;
  TxnManager manager;
  AtomicObject* obj = manager.AddObject("BA", ba, MakeConflict(ba),
                                        MakeRecovery(ba));
  obj->recovery().set_journal(&journal.journal);

  // Known sequence: +10, -3, +1, -2 committed one at a time.
  const std::vector<Invocation> script = {
      ba->DepositInv(10), ba->WithdrawInv(3), ba->DepositInv(1),
      ba->WithdrawInv(2)};
  for (const Invocation& inv : script) {
    ASSERT_TRUE(manager
                    .RunTransaction([&](Transaction* txn) {
                      return manager.Execute(txn, inv).status();
                    })
                    .ok());
  }
  const std::vector<int64_t> expected = {0, 10, 7, 8, 6};
  const DecodedJournal image = journal.Decode();
  ASSERT_EQ(image.entries.size(), 4u);
  for (size_t n = 0; n <= image.entries.size(); ++n) {
    const DecodedJournal prefix{std::vector<Journal::Entry>(
        image.entries.begin(), image.entries.begin() + n)};
    EXPECT_EQ(BalanceOf(*RecoverState(*ba, prefix)), expected[n])
        << "crash after " << n << " commit records";
  }
}

TEST_P(JournalTest, ConcurrentWorkloadSurvivesCrash) {
  auto ba = MakeBankAccount();
  MemoryJournal journal;
  TxnManagerOptions options;
  options.lock_timeout = std::chrono::milliseconds(2000);
  TxnManager manager(options);
  AtomicObject* obj = manager.AddObject("BA", ba, MakeConflict(ba),
                                        MakeRecovery(ba));
  obj->recovery().set_journal(&journal.journal);

  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Random rng(100 + w);
      for (int i = 0; i < 40; ++i) {
        Status s = manager.RunTransaction([&](Transaction* txn) -> Status {
          StatusOr<Value> r = manager.Execute(
              txn, ba->DepositInv(rng.UniformRange(1, 5)));
          if (!r.ok()) return r.status();
          if (rng.Bernoulli(0.2)) return Status::Aborted("injected");
          return Status::OK();
        });
        ASSERT_TRUE(s.ok() || s.code() == StatusCode::kAborted);
      }
    });
  }
  for (auto& t : workers) t.join();

  auto recovered = RecoverState(*ba, journal.Decode());
  EXPECT_TRUE(recovered->Equals(*obj->CommittedState()));
  EXPECT_EQ(journal.Decode().entries.size(), manager.stats().committed);
}

// The set ADT has no inverse operations, so UIP must recover it by replay;
// the journal path is identical and must still round-trip.
TEST_P(JournalTest, WorksForNonInvertibleAdts) {
  auto set = MakeIntSet();
  MemoryJournal journal;
  TxnManager manager;
  AtomicObject* obj = manager.AddObject("SET", set, MakeConflict(set),
                                        MakeRecovery(set));
  obj->recovery().set_journal(&journal.journal);

  Random rng(17);
  for (int i = 0; i < 40; ++i) {
    Status s = manager.RunTransaction([&](Transaction* txn) -> Status {
      const int64_t elem = rng.UniformRange(1, 6);
      const Invocation inv = rng.Bernoulli(0.6) ? set->InsertInv(elem)
                                                : set->RemoveInv(elem);
      StatusOr<Value> r = manager.Execute(txn, inv);
      if (!r.ok()) return r.status();
      if (rng.Bernoulli(0.25)) return Status::Aborted("injected");
      return Status::OK();
    });
    ASSERT_TRUE(s.ok() || s.code() == StatusCode::kAborted);
  }
  EXPECT_TRUE(
      RecoverState(*set, journal.Decode())->Equals(*obj->CommittedState()));
}

INSTANTIATE_TEST_SUITE_P(Methods, JournalTest,
                         ::testing::Values(Method::kUip, Method::kDu),
                         [](const ::testing::TestParamInfo<Method>& info) {
                           return info.param == Method::kUip ? "Uip" : "Du";
                         });

}  // namespace
}  // namespace ccr
