// Feeds each of the benchmark's checks a right result and a wrong one.
// Run with: python3 perfbench/run.py --self-test

#include "checks.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

constexpr int64_t kHopUs = 300;

/// A drained run that passes every ledger check: 5000 tokens, 700 held.
Ledger GoodLedger() {
  Ledger l;
  l.max_tokens = 5000;
  l.site_net_acquires = 700;
  l.pooled_tokens = 5000 - 700;
  l.client_acquires = 1000;
  l.client_releases = 300;
  l.client_reads = 50;
  l.rejected = 10;
  l.sent = 1360;
  l.min_latency_us = 4 * kHopUs;
  l.messages_sent = 4 * 1350;
  return l;
}

TEST(CheckLedgerTest, AcceptsCorrectRun) {
  EXPECT_TRUE(CheckLedger(GoodLedger(), kHopUs).empty());
}

TEST(CheckLedgerTest, Eq1FailsWhenTokensAreCreated) {
  Ledger l = GoodLedger();
  l.pooled_tokens += 1;
  ASSERT_EQ(CheckLedger(l, kHopUs).size(), 1u);
  EXPECT_NE(CheckLedger(l, kHopUs)[0].find("eq1"), std::string::npos);
}

TEST(CheckLedgerTest, LedgersMustAgree) {
  Ledger l = GoodLedger();
  l.client_acquires -= 1;  // a commit the client never heard about
  l.sent -= 1;
  auto failed = CheckLedger(l, kHopUs);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_NE(failed[0].find("ledgers"), std::string::npos);

  l = GoodLedger();
  l.site_net_acquires -= 1;  // a release the client never sent
  l.pooled_tokens += 1;      // keep Eq. 1 balanced: only the ledgers differ
  failed = CheckLedger(l, kHopUs);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_NE(failed[0].find("ledgers"), std::string::npos);
}

TEST(CheckLedgerTest, EveryRequestMustBeAnswered) {
  Ledger l = GoodLedger();
  l.dropped = 1;  // also neither committed nor rejected: two lines
  l.sent += 1;
  auto failed = CheckLedger(l, kHopUs);
  ASSERT_EQ(failed.size(), 2u);
  EXPECT_NE(failed[0].find("dropped"), std::string::npos);

  l = GoodLedger();
  l.sent += 2;  // two requests neither committed nor rejected
  failed = CheckLedger(l, kHopUs);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_NE(failed[0].find("answered"), std::string::npos);
}

TEST(CheckLedgerTest, NoCommitFasterThanFourHops) {
  Ledger l = GoodLedger();
  l.min_latency_us = 4 * kHopUs - 1;
  auto failed = CheckLedger(l, kHopUs);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_NE(failed[0].find("latency floor"), std::string::npos);
}

TEST(CheckLedgerTest, AtLeastFourMessagesPerOp) {
  Ledger l = GoodLedger();
  l.messages_sent = 4 * l.committed() - 1;
  auto failed = CheckLedger(l, kHopUs);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_NE(failed[0].find("message floor"), std::string::npos);
}

TEST(CheckLedgerTest, NothingCommittedFails) {
  Ledger l;
  l.max_tokens = 5000;
  l.pooled_tokens = 5000;
  EXPECT_FALSE(CheckLedger(l, kHopUs).empty());
}

TEST(CheckSameOutputsTest, AnyDifferingOutputFails) {
  SimDigest a;
  a.events = 100;
  a.committed_acquires = 10;
  a.latency_p99 = 3.5;
  EXPECT_TRUE(CheckSameOutputs("pdes", a, a).empty());
  SimDigest b = a;
  b.latency_p99 = 3.6;
  EXPECT_EQ(CheckSameOutputs("pdes", a, b).size(), 1u);
  b = a;
  b.bytes_sent = 1;
  EXPECT_EQ(CheckSameOutputs("pdes", a, b).size(), 1u);
  b = a;
  b.pooled_tokens = -1;
  EXPECT_EQ(CheckSameOutputs("pdes", a, b).size(), 1u);
}

TEST(CheckAuditorTest, AnyViolationFails) {
  EXPECT_TRUE(CheckAuditor(0, 0).empty());
  EXPECT_EQ(CheckAuditor(1, 0).size(), 1u);
  EXPECT_EQ(CheckAuditor(0, 3).size(), 1u);
}

TEST(CheckSimVsRealTest, CommittedMustMatchAndMessagesWithinFivePercent) {
  EXPECT_TRUE(CheckSimVsReal(197, 4.0, 197, 4.0).empty());
  EXPECT_TRUE(CheckSimVsReal(197, 4.0, 197, 4.19).empty());
  EXPECT_EQ(CheckSimVsReal(197, 4.0, 196, 4.0).size(), 1u);
  EXPECT_EQ(CheckSimVsReal(197, 4.0, 197, 4.21).size(), 1u);
  EXPECT_EQ(CheckSimVsReal(197, 4.0, 197, 3.79).size(), 1u);
  EXPECT_EQ(CheckSimVsReal(197, 4.0, 0, 0.0).size(), 2u);
}

}  // namespace
}  // namespace perfbench
