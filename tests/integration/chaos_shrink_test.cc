// End-to-end checks of the case shrinking pipeline: manufacture a
// deterministic violation (quiescence guard off + crash window), ddmin it to
// a minimal reproducer — over fault ops, delivery choices, or both — and
// confirm the reproducer replays bit-identically.

#include <gtest/gtest.h>

#include "harness/case.h"

namespace samya::harness {
namespace {

/// Two replays of `c` must fail `check` at the same first violation, to the
/// microsecond and the detail string.
void ExpectReplaysToSameFirstViolation(const Case& c,
                                       const std::string& check) {
  const CaseResult a = RunCase(c);
  const CaseResult b = RunCase(c);
  ASSERT_FALSE(a.violations.empty());
  ASSERT_FALSE(b.violations.empty());
  EXPECT_EQ(a.violations.front().check, check);
  EXPECT_EQ(a.violations.front().check, b.violations.front().check);
  EXPECT_EQ(a.violations.front().at, b.violations.front().at);
  EXPECT_EQ(a.violations.front().detail, b.violations.front().detail);
}

TEST(ChaosShrinkTest, GuardOffViolationShrinksToMinimalReproducer) {
  // Full nemesis schedule; guard off makes conservation fire inside any
  // crash window, so ddmin can peel everything else away.
  Case c = MakeNemesisCase(SystemKind::kSamyaMajority, /*seed=*/12,
                           /*intensity=*/2.0);
  c.duration = Seconds(45);
  c.quiescence_guard = false;

  const CaseResult full = RunCase(c);
  ASSERT_FALSE(full.violations.empty());
  c.violation_check = full.violations.front().check;
  EXPECT_EQ(c.violation_check, "conservation");

  int runs_used = 0;
  const Case minimized = MinimizeCase(c, /*max_runs=*/200, &runs_used);
  EXPECT_LE(minimized.schedule.size(), 10u)
      << "ddmin left " << minimized.schedule.size() << " ops";
  EXPECT_LT(minimized.schedule.size(), c.schedule.size());
  EXPECT_GT(runs_used, 0);

  // The minimized case still reproduces, and deterministically so.
  ExpectReplaysToSameFirstViolation(minimized, c.violation_check);
}

TEST(ChaosShrinkTest, ShrinkPreservesCaseIdentity) {
  Case c = MakeNemesisCase(SystemKind::kSamyaMajority, /*seed=*/12,
                           /*intensity=*/1.0);
  c.quiescence_guard = false;
  c.violation_check = "conservation";
  const Case minimized = MinimizeCase(c, /*max_runs=*/60);
  // Only the schedule shrinks; the workload configuration is untouched, so
  // the reproducer runs against the exact same simulated world.
  EXPECT_EQ(minimized.system, c.system);
  EXPECT_EQ(minimized.seed, c.seed);
  EXPECT_EQ(minimized.num_sites, c.num_sites);
  EXPECT_EQ(minimized.max_tokens, c.max_tokens);
  EXPECT_EQ(minimized.duration, c.duration);
  EXPECT_FALSE(minimized.quiescence_guard);
}

TEST(ChaosShrinkTest, OnePassShrinksFaultOpsAndChoicesTogether) {
  // Both axes at once: a guard-off crash window in the scripted contention
  // scenario, under a randomly walked delivery order. Only the crash is
  // needed for the conservation violation, so ddmin must strip the other
  // ops and every deviation from FIFO.
  Case c = ContentionCase(SystemKind::kSamyaMajority);
  c.quiescence_guard = false;
  const auto add = [&c](SimTime at, sim::FaultOp::Kind kind,
                        sim::NodeId node = sim::kInvalidNode,
                        double value = 0.0) {
    sim::FaultOp op;
    op.at = at;
    op.kind = kind;
    op.a = node;
    op.value = value;
    c.schedule.ops.push_back(op);
  };
  add(Millis(300), sim::FaultOp::Kind::kSetLossRate, sim::kInvalidNode, 0.01);
  add(Millis(700), sim::FaultOp::Kind::kCrash, 1);
  add(Millis(900), sim::FaultOp::Kind::kSetDelayFactor, sim::kInvalidNode,
      1.5);
  add(Millis(1900), sim::FaultOp::Kind::kRecover, 1);
  add(Millis(2000), sim::FaultOp::Kind::kHeal);
  sim::RandomWalkOracle walk(/*seed=*/5);
  const CaseResult walked = RunCase(c, &walk);
  c.choices = walked.choices;
  ASSERT_GT(c.choices.size(), 2u);

  const CaseResult full = RunCase(c);
  ASSERT_TRUE(full.violated());
  c.violation_check = full.failed_check;
  EXPECT_EQ(c.violation_check, "conservation");

  int runs_used = 0;
  const Case minimized = MinimizeCase(c, /*max_runs=*/400, &runs_used);
  EXPECT_LT(minimized.schedule.size(), c.schedule.size());
  EXPECT_LT(minimized.choices.size(), c.choices.size());
  EXPECT_LT(runs_used, 400);
  ExpectReplaysToSameFirstViolation(minimized, c.violation_check);
}

}  // namespace
}  // namespace samya::harness
