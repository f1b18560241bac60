#include "harness/invariant_auditor.h"

#include <gtest/gtest.h>

#include "harness/case.h"
#include "harness/experiment.h"

namespace samya::harness {
namespace {

Case SmallCase(SystemKind system = SystemKind::kSamyaMajority) {
  Case c;
  c.system = system;
  c.seed = 42;
  c.max_tokens = 1200;  // tight pool: redistributions must happen
  c.duration = Seconds(30);
  return c;
}

TEST(InvariantAuditorTest, CleanRunAuditsWithoutViolations) {
  for (SystemKind system :
       {SystemKind::kSamyaMajority, SystemKind::kSamyaAny}) {
    const CaseResult r = RunCase(SmallCase(system));
    EXPECT_TRUE(r.violations.empty())
        << SystemName(system) << ": " << r.violations.front().check << " "
        << r.violations.front().detail;
    // The periodic tick actually ran throughout the load window.
    EXPECT_GE(r.audit_ticks, 30u) << SystemName(system);
  }
}

TEST(InvariantAuditorTest, ConservationHoldsAtQuiescenceAcrossCrashes) {
  // A crash + recover cycle with the guard on: the auditor skips the
  // non-quiescent window and the run must come out clean.
  Case c = SmallCase();
  c.schedule.ops.push_back({Seconds(5), sim::FaultOp::Kind::kCrash, 1});
  c.schedule.ops.push_back({Seconds(9), sim::FaultOp::Kind::kRecover, 1});
  const CaseResult r = RunCase(c);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().check << " " << r.violations.front().detail;
}

TEST(InvariantAuditorTest, GuardOffFlagsConservationDuringCrashWindow) {
  // With the quiescence guard disabled, the same crash makes the Eq. 1
  // equality fail deterministically while site 1's pool reads zero. This is
  // the manufactured-violation path the shrink pipeline relies on.
  Case c = SmallCase();
  c.quiescence_guard = false;
  c.schedule.ops.push_back({Seconds(5), sim::FaultOp::Kind::kCrash, 1});
  c.schedule.ops.push_back({Seconds(9), sim::FaultOp::Kind::kRecover, 1});
  const CaseResult r = RunCase(c);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations.front().check, "conservation");
  EXPECT_GE(r.violations.front().at, Seconds(5));
}

TEST(InvariantAuditorTest, LivenessFlagsSiteLeftCrashed) {
  Case c = SmallCase();
  c.schedule.ops.push_back({Seconds(5), sim::FaultOp::Kind::kCrash, 2});
  // No recover op: the final audit must call out the dead site.
  const CaseResult r = RunCase(c);
  bool flagged = false;
  for (const AuditViolation& v : r.violations) {
    if (v.check == "liveness" &&
        v.detail.find("still crashed") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(InvariantAuditorTest, BoundedCounterCleanRunAuditsWithoutViolations) {
  // The CRDT baseline audits the same Eq. 1 identity: sum of authoritative
  // balances plus the server-side ledger equals M at every tick.
  const CaseResult r = RunCase(SmallCase(SystemKind::kBoundedCounter));
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().check << " " << r.violations.front().detail;
  EXPECT_GE(r.audit_ticks, 30u);
}

TEST(InvariantAuditorTest, BoundedCounterNemesisRunStaysClean) {
  Case c = MakeNemesisCase(SystemKind::kBoundedCounter, /*seed=*/13,
                                /*intensity=*/1.5, /*num_sites=*/5,
                                /*isolate=*/1.0);
  c.duration = Seconds(30);
  const CaseResult r = RunCase(c);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().check << " " << r.violations.front().detail;
}

TEST(InvariantAuditorTest, ReconcileFlagsSamyaSiteLeftDisconnected) {
  // Isolate site 0's island and never heal: the run ends with the site
  // still inside its disconnected epoch, which the final audit must call
  // out as an unreconciled window.
  Case c = SmallCase();
  c.max_tokens = 5000;  // roomy: keep site 0 out of redistribution freezes
  c.disconnected_mode = true;
  c.schedule.ops.push_back({Seconds(5), sim::FaultOp::Kind::kIsolateSite, 0,
                            sim::kInvalidNode, 0.0,
                            {{0, 5, 10}}});
  const CaseResult r = RunCase(c);
  bool flagged = false;
  for (const AuditViolation& v : r.violations) {
    if (v.check == "reconcile") flagged = true;
  }
  EXPECT_TRUE(flagged);
}

TEST(InvariantAuditorTest, ReconcileFlagsBoundedSiteLeftDisconnected) {
  Case c = SmallCase(SystemKind::kBoundedCounter);
  c.max_tokens = 5000;
  c.schedule.ops.push_back({Seconds(5), sim::FaultOp::Kind::kIsolateSite, 0,
                            sim::kInvalidNode, 0.0,
                            {{0, 5, 10}}});
  const CaseResult r = RunCase(c);
  bool flagged = false;
  for (const AuditViolation& v : r.violations) {
    if (v.check == "reconcile") flagged = true;
  }
  EXPECT_TRUE(flagged);
}

TEST(InvariantAuditorTest, AuditedRunsAreDeterministic) {
  Case c = MakeNemesisCase(SystemKind::kSamyaAny, /*seed=*/3,
                                /*intensity=*/2.0);
  c.duration = Seconds(30);
  const CaseResult a = RunCase(c);
  const CaseResult b = RunCase(c);
  EXPECT_EQ(a.aggregate.TotalCommitted(), b.aggregate.TotalCommitted());
  EXPECT_EQ(a.audit_ticks, b.audit_ticks);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].at, b.violations[i].at);
    EXPECT_EQ(a.violations[i].detail, b.violations[i].detail);
  }
}

}  // namespace
}  // namespace samya::harness
