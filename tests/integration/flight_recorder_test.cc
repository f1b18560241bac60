// Flight-recorder contract tests (DESIGN.md §13).
//
// The recorder is an always-on-capable pure observer, so the pinned
// properties are:
//  - arming it changes nothing: run digests with the recorder on are
//    bit-identical to runs with all observability off, under loss +
//    duplication + isolation chaos, serial and PDES alike;
//  - the canonical (at, site, seq) event order is identical between the
//    serial loop and PDES shard-merged recorders (same Digest());
//  - the bounded ring accounts wraparound exactly (total / dropped /
//    complete_from) instead of silently losing history;
//  - a post-mortem bundle round-trips byte-identically through
//    Write -> Load -> Write, and `DiffPostmortems` finds zero divergence
//    between identical-seed runs but a first divergent event once a
//    test-only mutation perturbs the protocol history.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/testonly_mutation.h"
#include "harness/case.h"
#include "harness/postmortem.h"
#include "obs/flight_recorder.h"
#include "sim/nemesis.h"

namespace samya::harness {
namespace {

using Digest = std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                          uint64_t, uint64_t, uint64_t, int64_t, uint64_t>;

/// Loss + duplication spikes around a region-island isolation with a crash/
/// recover cycle inside it: every message-fate and degraded-mode event kind
/// fires, and the per-sender RNG draw order is exercised hard.
sim::FaultSchedule LossDupIsolationSchedule() {
  sim::FaultSchedule s;
  auto add = [&s](SimTime at, sim::FaultOp::Kind kind, double value) {
    sim::FaultOp op;
    op.at = at;
    op.kind = kind;
    op.value = value;
    s.ops.push_back(op);
  };
  add(Seconds(2), sim::FaultOp::Kind::kSetLossRate, 0.05);
  add(Seconds(3), sim::FaultOp::Kind::kSetDuplicateRate, 0.05);
  sim::FaultOp iso;
  iso.at = Seconds(4);
  iso.kind = sim::FaultOp::Kind::kIsolateSite;
  iso.a = 0;
  iso.groups = {{0, 5, 10}};
  s.ops.push_back(iso);
  sim::FaultOp crash;
  crash.at = Seconds(7);
  crash.kind = sim::FaultOp::Kind::kCrash;
  crash.a = 1;
  s.ops.push_back(crash);
  sim::FaultOp recover;
  recover.at = Seconds(9);
  recover.kind = sim::FaultOp::Kind::kRecover;
  recover.a = 1;
  s.ops.push_back(recover);
  sim::FaultOp heal;
  heal.at = Seconds(12);
  heal.kind = sim::FaultOp::Kind::kHeal;
  s.ops.push_back(heal);
  add(Seconds(13), sim::FaultOp::Kind::kSetLossRate, 0.0);
  add(Seconds(14), sim::FaultOp::Kind::kSetDuplicateRate, 0.0);
  return s;
}

struct RunOut {
  Digest digest;
  bool active = false;
  std::string fallback;
  std::shared_ptr<obs::Observability> obs;
};

RunOut RunOnce(int workers, bool flight) {
  ExperimentOptions opts;
  opts.system = SystemKind::kSamyaMajority;
  opts.duration = Seconds(20);
  opts.max_tokens = 300;  // scarce enough to trigger redistributions
  opts.seed = 11;
  opts.pdes_workers = workers;
  opts.fault_schedule = LossDupIsolationSchedule();
  opts.obs.flight_recorder = flight;
  opts.site_template.enable_disconnected_mode = true;
  Experiment experiment(opts);
  experiment.Setup();
  const ExperimentResult r = experiment.Run();
  RunOut out;
  out.digest = Digest(r.events_executed, r.aggregate.committed_acquires,
                      r.aggregate.committed_releases, r.aggregate.rejected,
                      r.network.messages_sent, r.network.messages_delivered,
                      r.network.messages_duplicated, r.network.bytes_sent,
                      experiment.TotalSiteTokens(),
                      r.aggregate.latency.count());
  out.active = experiment.pdes_active();
  out.fallback = experiment.pdes_fallback_reason();
  out.obs = r.obs;
  return out;
}

TEST(FlightRecorderDeterminismTest, ArmedRunIsBitIdenticalToUnobserved) {
  const RunOut off = RunOnce(/*workers=*/1, /*flight=*/false);
  const RunOut on = RunOnce(/*workers=*/1, /*flight=*/true);
  EXPECT_EQ(off.digest, on.digest);
  ASSERT_NE(on.obs, nullptr);
  ASSERT_NE(on.obs->flight(), nullptr);
  EXPECT_GT(on.obs->flight()->total(), 0u);
  // Off means off: no recorder object at all, not an idle one.
  EXPECT_EQ(off.obs, nullptr);
}

TEST(FlightRecorderDeterminismTest, PdesMatchesSerialHistoryExactly) {
  const RunOut serial = RunOnce(/*workers=*/1, /*flight=*/true);
  ASSERT_NE(serial.obs->flight(), nullptr);
  const std::vector<obs::FlightEvent> serial_events =
      serial.obs->flight()->Canonical();
  ASSERT_FALSE(serial_events.empty());
  for (int workers : {2, 4}) {
    const RunOut par = RunOnce(workers, /*flight=*/true);
    EXPECT_TRUE(par.active) << "workers=" << workers << ": " << par.fallback;
    EXPECT_EQ(par.digest, serial.digest) << "workers=" << workers;
    ASSERT_NE(par.obs->flight(), nullptr);
    // Shard recorders merged at FinishRun must reproduce the serial
    // history event for event, and therefore digest for digest.
    EXPECT_EQ(par.obs->flight()->Digest(), serial.obs->flight()->Digest())
        << "workers=" << workers;
    EXPECT_EQ(par.obs->flight()->Canonical(), serial_events)
        << "workers=" << workers;
  }
}

TEST(FlightRecorderTest, RingWraparoundAccounting) {
  obs::FlightRecorder rec(/*capacity=*/8);
  EXPECT_EQ(rec.complete_from(), 0);
  for (int i = 1; i <= 20; ++i) {
    rec.Record(/*at=*/i * 10, /*site=*/i % 3, obs::FlightKind::kPoolDelta,
               obs::kPoolServe, /*a=*/-1, /*b=*/100 - i);
  }
  EXPECT_EQ(rec.total(), 20u);
  EXPECT_EQ(rec.retained(), 8u);
  EXPECT_EQ(rec.dropped(), 12u);
  // Events 1..12 (times 10..120) were evicted in arrival order, so the
  // retained history is complete from just after t=120.
  EXPECT_EQ(rec.complete_from(), 121);
  const std::vector<obs::FlightEvent> canon = rec.Canonical();
  ASSERT_EQ(canon.size(), 8u);
  for (size_t i = 0; i + 1 < canon.size(); ++i) {
    EXPECT_LE(canon[i].at, canon[i + 1].at);
  }
  EXPECT_EQ(canon.front().at, 130);
  EXPECT_EQ(canon.back().at, 200);
}

TEST(FlightRecorderTest, MergePreservesStampsAndSeqMonotonicity) {
  obs::FlightRecorder a;
  obs::FlightRecorder b;
  a.Record(100, /*site=*/0, obs::FlightKind::kPhase, obs::kPhaseEngage, 1);
  b.Record(50, /*site=*/1, obs::FlightKind::kPhase, obs::kPhaseEngage, 2);
  b.Record(150, /*site=*/1, obs::FlightKind::kPhase, obs::kPhaseAbort, 2);
  a.Merge(b);
  const std::vector<obs::FlightEvent> canon = a.Canonical();
  ASSERT_EQ(canon.size(), 3u);
  EXPECT_EQ(canon[0].at, 50);
  EXPECT_EQ(canon[1].at, 100);
  EXPECT_EQ(canon[2].at, 150);
  // Recording for a merged site continues past its merged seq values.
  a.Record(200, /*site=*/1, obs::FlightKind::kPhase, obs::kPhaseFinish, 2);
  const std::vector<obs::FlightEvent> after = a.Canonical();
  EXPECT_GT(after.back().seq, canon[2].seq);
}

class PostmortemRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("samya_flight_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  std::filesystem::path dir_;
};

TEST_F(PostmortemRoundTripTest, WriteLoadRewriteIsByteIdentical) {
  const Case c = ContentionCase(SystemKind::kSamyaMajority);
  const CaseResult r = RunCase(c);
  ASSERT_NE(r.obs, nullptr);
  ASSERT_NE(r.obs->flight(), nullptr);
  const PostmortemBundle bundle =
      MakePostmortem("flight_recorder_test", c.ToJson(), r);

  const std::string p1 = (dir_ / "bundle1.json").string();
  const std::string p2 = (dir_ / "bundle2.json").string();
  ASSERT_TRUE(WritePostmortem(bundle, p1).ok());
  auto loaded = LoadPostmortem(p1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_TRUE(WritePostmortem(loaded.value(), p2).ok());
  EXPECT_EQ(Slurp(p1), Slurp(p2));

  // The decoded events must match the recorder's canonical view exactly.
  auto events = FlightEventsOf(loaded.value());
  ASSERT_TRUE(events.ok()) << events.status().message();
  EXPECT_EQ(events.value(), r.obs->flight()->Canonical());
}

TEST_F(PostmortemRoundTripTest, IdenticalSeedBundlesDiffClean) {
  const Case c = ContentionCase(SystemKind::kSamyaMajority);
  const CaseResult r1 = RunCase(c);
  const CaseResult r2 = RunCase(c);
  const PostmortemBundle b1 = MakePostmortem("test", c.ToJson(), r1);
  const PostmortemBundle b2 = MakePostmortem("test", c.ToJson(), r2);
  const PostmortemDiff d = DiffPostmortems(b1, b2);
  EXPECT_TRUE(d.comparable);
  EXPECT_FALSE(d.diverged) << "a: " << d.event_a << " b: " << d.event_b;
  EXPECT_GT(d.compared, 0u);
}

TEST_F(PostmortemRoundTripTest, MutatedRunDiffReportsFirstDivergentEvent) {
  const Case c = ContentionCase(SystemKind::kSamyaMajority);
  const CaseResult clean = RunCase(c);
  SetMutationForTest(kMutationAllocRemainder, true);
  Case mutated_case = c;
  mutated_case.mutation = kMutationAllocRemainder;
  const CaseResult mutated = RunCase(mutated_case);
  SetMutationForTest(kMutationAllocRemainder, false);
  ASSERT_TRUE(mutated.violated());

  const PostmortemBundle bc = MakePostmortem("test", c.ToJson(), clean);
  const PostmortemBundle bm =
      MakePostmortem("test", mutated_case.ToJson(), mutated);
  // The mutated run carries the auditor's marker in its flight history.
  auto mutated_events = FlightEventsOf(bm);
  ASSERT_TRUE(mutated_events.ok());
  bool saw_violation_marker = false;
  for (const obs::FlightEvent& ev : mutated_events.value()) {
    if (ev.kind == obs::FlightKind::kViolation) saw_violation_marker = true;
  }
  EXPECT_TRUE(saw_violation_marker);

  const PostmortemDiff d = DiffPostmortems(bc, bm);
  ASSERT_TRUE(d.comparable);
  ASSERT_TRUE(d.diverged);
  EXPECT_FALSE(d.event_a.empty());
  EXPECT_FALSE(d.event_b.empty());
}

}  // namespace
}  // namespace samya::harness
