// Mutation smoke tests: resurrect two bugs this repo actually shipped and
// fixed, behind SAMYA_TESTONLY_MUTATION flags, and assert the checking
// machinery still catches each one within a bounded budget. If a checker
// regresses into leniency, these are the tests that notice.
//
//  - "alloc_remainder": the deployment builders once dropped the M_e % n
//    remainder when splitting an entity's tokens across sites, so pools
//    summed below M_e. The invariant auditor's conservation check must flag
//    it on the very first explorer run.
//  - "compact_before_apply": FileStableStorage once compacted the log from
//    the pre-op map during the Put that triggered compaction, silently
//    dropping the just-synced record across a reopen. A storage-vs-model
//    replay must see the divergence.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "common/testonly_mutation.h"
#include "harness/case.h"
#include "storage/stable_storage.h"

namespace samya::harness {
namespace {

/// Arms a mutation for the enclosing scope; never leaks into other tests.
class ScopedMutation {
 public:
  explicit ScopedMutation(const char* name) : name_(name) {
    SetMutationForTest(name_, true);
  }
  ~ScopedMutation() { SetMutationForTest(name_, false); }

 private:
  const char* name_;
};

TEST(TestonlyMutationTest, DisabledByDefaultAndToggleable) {
  EXPECT_FALSE(MutationEnabled(kMutationAllocRemainder));
  EXPECT_FALSE(MutationEnabled(kMutationCompactBeforeApply));
  {
    ScopedMutation arm(kMutationAllocRemainder);
    EXPECT_TRUE(MutationEnabled(kMutationAllocRemainder));
    EXPECT_FALSE(MutationEnabled(kMutationCompactBeforeApply));
  }
  EXPECT_FALSE(MutationEnabled(kMutationAllocRemainder));
}

TEST(MutationSmokeTest, AllocRemainderCaughtByExplorerInOneRun) {
  // M = 31 over 3 sites leaves remainder 1; dropping it starts the pools at
  // 30, which the conservation ledger (pools + net acquires == M_e) sees at
  // the first quiescent audit tick. Budget: a single FIFO run — no schedule
  // search needed, the bug is unconditional.
  Case c = ContentionCase(SystemKind::kSamyaMajority);
  c.mutation = kMutationAllocRemainder;
  const CaseResult r = RunCase(c);
  EXPECT_TRUE(r.violated());
  EXPECT_EQ(r.failed_check, "conservation");
}

TEST(MutationSmokeTest, AllocRemainderCleanRunStaysClean) {
  // Control: identical config without the mutation must not flag, i.e. the
  // smoke test above detects the bug, not the scenario.
  const Case c = ContentionCase(SystemKind::kSamyaMajority);
  const CaseResult r = RunCase(c);
  EXPECT_FALSE(r.violated()) << r.failed_check;
  EXPECT_GT(r.ops_recorded, 0u);
}

class CompactBeforeApplyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("samya_mutation_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "store.wal").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes 0..4 to one key with threshold 4 (the 5th Put triggers
  /// compaction), reopens, and replays the same ops against an in-memory
  /// model. Returns whether storage and model agree.
  bool StorageMatchesModel() {
    storage::InMemoryStableStorage model;
    {
      auto s = storage::FileStableStorage::Open(path_,
                                                /*compaction_threshold=*/4);
      EXPECT_TRUE(s.ok());
      for (int i = 0; i <= 4; ++i) {
        EXPECT_TRUE((*s)->PutString("k", std::to_string(i)).ok());
        EXPECT_TRUE(model.PutString("k", std::to_string(i)).ok());
      }
    }
    auto reopened = storage::FileStableStorage::Open(path_, 4);
    EXPECT_TRUE(reopened.ok());
    auto stored = (*reopened)->GetString("k");
    return stored.ok() && stored.value() == model.GetString("k").value();
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(CompactBeforeApplyTest, MutationCaughtByStorageModelCheck) {
  ScopedMutation arm(kMutationCompactBeforeApply);
  // The compaction triggered by the last Put rewrites the log from the
  // pre-op map, so the reopened store diverges from the model — exactly the
  // divergence the crash-cycle property test hunts for.
  EXPECT_FALSE(StorageMatchesModel());
}

TEST_F(CompactBeforeApplyTest, FixedCodeMatchesModel) {
  EXPECT_TRUE(StorageMatchesModel());
}

}  // namespace
}  // namespace samya::harness
