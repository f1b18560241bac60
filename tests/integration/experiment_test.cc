#include "harness/experiment.h"

#include <gtest/gtest.h>

#include "workload/request_stream.h"
#include "workload/transform.h"

namespace samya::harness {
namespace {

ExperimentOptions SmallOptions(SystemKind system, uint64_t seed = 42) {
  ExperimentOptions opts;
  opts.system = system;
  opts.duration = Minutes(3);
  opts.seed = seed;
  opts.trace.days = 3;  // enough compressed trace for a few minutes
  return opts;
}

TEST(ExperimentTest, EverySystemCommitsTransactions) {
  for (SystemKind system :
       {SystemKind::kSamyaMajority, SystemKind::kSamyaAny,
        SystemKind::kMultiPaxSys, SystemKind::kCockroachLike,
        SystemKind::kDemarcation, SystemKind::kSiteEscrow,
        SystemKind::kSamyaNoConstraint,
        SystemKind::kSamyaNoRedistribution,
        SystemKind::kSamyaMajorityNoPredict, SystemKind::kSamyaAnyNoPredict}) {
    Experiment experiment(SmallOptions(system));
    experiment.Setup();
    auto result = experiment.Run();
    EXPECT_GT(result.aggregate.TotalCommitted(), 1000u)
        << SystemName(system);
  }
}

TEST(ExperimentTest, SamyaConservesTokensExactly) {
  for (SystemKind system :
       {SystemKind::kSamyaMajority, SystemKind::kSamyaAny}) {
    ExperimentOptions opts = SmallOptions(system);
    opts.max_tokens = 1200;  // tight pool: redistributions must happen
    Experiment experiment(opts);
    experiment.Setup();
    auto result = experiment.Run();
    // Eq. 1 audit: all of M_e is either in a site pool or held by clients.
    EXPECT_EQ(experiment.TotalSiteTokens() + experiment.NetCommittedAcquires(),
              1200)
        << SystemName(system);
    EXPECT_GT(result.instances_completed, 0u) << SystemName(system);
  }
}

TEST(ExperimentTest, SamyaVastlyOutperformsReplicatedBaselines) {
  // The headline result (Fig 3b): dis-aggregation commits an order of
  // magnitude more transactions than per-update replication.
  auto run = [](SystemKind system) {
    Experiment experiment(SmallOptions(system));
    experiment.Setup();
    return experiment.Run().aggregate.TotalCommitted();
  };
  const auto samya = run(SystemKind::kSamyaMajority);
  const auto multipax = run(SystemKind::kMultiPaxSys);
  EXPECT_GT(samya, 8 * multipax);
}

TEST(ExperimentTest, SamyaLatencyFarBelowBaseline) {
  // Burst-free workload: demand bursts above M_e legitimately push Samya's
  // tail into redistribution-wait territory (that is Table 2b's p99); the
  // p90 contrast with the baselines is about the common case.
  auto p90 = [](SystemKind system) {
    ExperimentOptions opts = SmallOptions(system);
    opts.trace.burst_probability = 0;
    Experiment experiment(opts);
    experiment.Setup();
    auto result = experiment.Run();
    return result.aggregate.latency.P90();
  };
  const double samya = p90(SystemKind::kSamyaMajority);
  const double multipax = p90(SystemKind::kMultiPaxSys);
  EXPECT_LT(samya, Millis(20));
  EXPECT_GT(multipax, Millis(60));
}

TEST(ExperimentTest, DeterministicBySeed) {
  auto run = [](uint64_t seed) {
    Experiment experiment(SmallOptions(SystemKind::kSamyaMajority, seed));
    experiment.Setup();
    auto result = experiment.Run();
    return result.aggregate.TotalCommitted();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(ExperimentTest, ReadRatioProducesReads) {
  ExperimentOptions opts = SmallOptions(SystemKind::kSamyaMajority);
  opts.read_ratio = 0.5;
  opts.trace.burst_probability = 0;  // keep the committed write/read mix 50/50
  Experiment experiment(opts);
  experiment.Setup();
  auto result = experiment.Run();
  EXPECT_GT(result.aggregate.committed_reads, 1000u);
  const double frac =
      static_cast<double>(result.aggregate.committed_reads) /
      static_cast<double>(result.aggregate.TotalCommitted());
  EXPECT_NEAR(frac, 0.5, 0.1);
}

TEST(ExperimentTest, ScalesToTwentySites) {
  ExperimentOptions opts = SmallOptions(SystemKind::kSamyaAny);
  opts.num_sites = 20;
  opts.scale_load_with_sites = true;
  Experiment experiment(opts);
  experiment.Setup();
  EXPECT_EQ(experiment.samya_sites().size(), 20u);
  auto result = experiment.Run();
  EXPECT_GT(result.aggregate.TotalCommitted(), 1000u);
  EXPECT_EQ(experiment.TotalSiteTokens() + experiment.NetCommittedAcquires(),
            5000);
}

TEST(ExperimentTest, AggregateCountsSkippedReleases) {
  // A release the client holds no tokens for is skipped, not sent (§3.2).
  using Type = workload::Request::Type;
  ExperimentOptions opts;
  opts.system = SystemKind::kSamyaMajority;
  opts.duration = Seconds(10);
  opts.scripts_override = {
      {{Seconds(1), Type::kRelease, 1},
       {Seconds(2), Type::kAcquire, 1},
       {Seconds(3), Type::kRelease, 1},
       {Seconds(4), Type::kRelease, 1}},
      {{Seconds(1), Type::kRelease, 1}}};
  Experiment experiment(opts);
  experiment.Setup();
  const ExperimentResult result = experiment.Run();
  uint64_t per_client = 0;
  for (const ClientStats& s : result.per_client) {
    per_client += s.skipped_releases;
  }
  EXPECT_EQ(per_client, 3u);
  EXPECT_EQ(result.aggregate.skipped_releases, per_client);
  EXPECT_EQ(result.aggregate.sent, 2u);
}

/// Region r's script drained up front, built the way a test would by hand:
/// the rotated trace copy (`PhaseShift`) rather than the stream's offset.
std::vector<std::vector<workload::Request>> DrainedScripts(
    const ExperimentOptions& opts) {
  const workload::DemandTrace compressed = workload::CompressTime(
      workload::GenerateAzureTrace(opts.trace), opts.compress_factor);
  const Duration day = compressed.interval() * 288;
  std::vector<std::vector<workload::Request>> scripts;
  for (int r = 0; r < 5; ++r) {
    workload::RequestStreamOptions ropts;
    ropts.read_ratio = opts.read_ratio;
    ropts.horizon = opts.duration;
    ropts.seed = opts.seed + 7 + static_cast<uint64_t>(r);
    scripts.push_back(workload::GenerateRequests(
        workload::PhaseShift(compressed, day * r / 5), ropts));
  }
  return scripts;
}

void ExpectSameRun(const ExperimentResult& a, const ExperimentResult& b) {
  const ClientStats& x = a.aggregate;
  const ClientStats& y = b.aggregate;
  EXPECT_EQ(x.committed_acquires, y.committed_acquires);
  EXPECT_EQ(x.committed_releases, y.committed_releases);
  EXPECT_EQ(x.committed_reads, y.committed_reads);
  EXPECT_EQ(x.rejected, y.rejected);
  EXPECT_EQ(x.dropped, y.dropped);
  EXPECT_EQ(x.sent, y.sent);
  EXPECT_EQ(x.skipped_releases, y.skipped_releases);
  EXPECT_EQ(a.in_flight, b.in_flight);
  EXPECT_EQ(x.latency.count(), y.latency.count());
  EXPECT_EQ(x.latency.min(), y.latency.min());
  EXPECT_EQ(x.latency.P50(), y.latency.P50());
  EXPECT_EQ(x.latency.P99(), y.latency.P99());
  EXPECT_EQ(x.latency.max(), y.latency.max());
  EXPECT_EQ(a.proactive_redistributions, b.proactive_redistributions);
  EXPECT_EQ(a.reactive_redistributions, b.reactive_redistributions);
  EXPECT_EQ(a.instances_completed, b.instances_completed);
  EXPECT_EQ(a.instances_aborted, b.instances_aborted);
  EXPECT_EQ(a.network.messages_sent, b.network.messages_sent);
  EXPECT_EQ(a.network.messages_delivered, b.network.messages_delivered);
  EXPECT_EQ(a.network.messages_dropped_loss, b.network.messages_dropped_loss);
  EXPECT_EQ(a.network.messages_dropped_partition,
            b.network.messages_dropped_partition);
  EXPECT_EQ(a.network.messages_dropped_crashed,
            b.network.messages_dropped_crashed);
  EXPECT_EQ(a.network.messages_dropped_link, b.network.messages_dropped_link);
  EXPECT_EQ(a.network.messages_duplicated, b.network.messages_duplicated);
  EXPECT_EQ(a.network.bytes_sent, b.network.bytes_sent);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(ExperimentTest, StreamedScriptsMatchOverride) {
  ExperimentOptions majority;
  majority.system = SystemKind::kSamyaMajority;
  majority.duration = Minutes(2);
  majority.trace.days = 3;
  ExperimentOptions any_reads = majority;
  any_reads.system = SystemKind::kSamyaAny;
  any_reads.closed_loop = true;
  any_reads.read_ratio = 0.2;
  for (const ExperimentOptions& streamed : {majority, any_reads}) {
    SCOPED_TRACE(SystemName(streamed.system));
    ExperimentOptions fixed = streamed;
    fixed.scripts_override = DrainedScripts(streamed);
    Experiment a(streamed);
    a.Setup();
    const ExperimentResult ra = a.Run();
    Experiment b(fixed);
    b.Setup();
    const ExperimentResult rb = b.Run();
    EXPECT_GT(ra.aggregate.TotalCommitted(), 10000u);
    ExpectSameRun(ra, rb);
  }
}

TEST(ExperimentTest, ClientLedgerClosesWithInFlight) {
  // Full trace volume in a closed loop: the scripts outlast the run, so it
  // stops with requests still outstanding, and those are counted.
  ExperimentOptions opts;
  opts.system = SystemKind::kSamyaAny;
  opts.duration = Minutes(2);
  opts.trace.days = 3;
  opts.closed_loop = true;
  opts.read_ratio = 0.2;
  opts.seed = 1;
  Experiment experiment(opts);
  experiment.Setup();
  const ExperimentResult result = experiment.Run();
  const ClientStats& s = result.aggregate;
  EXPECT_GT(result.in_flight, 0u);
  EXPECT_EQ(s.sent, s.TotalCommitted() + s.rejected + s.dropped +
                        result.in_flight);
}

TEST(ExperimentTest, ClientLedgerClosesAfterClientCrash) {
  // Crash every client mid-run, while requests are outstanding: the ones a
  // crashed client forgets count as dropped, so the ledger still closes.
  ExperimentOptions opts = SmallOptions(SystemKind::kSamyaMajority);
  for (int r = 0; r < 5; ++r) {
    // Client of region r: node id num_sites + 5 + r.
    sim::FaultOp crash;
    crash.at = Seconds(60) + Millis(1) + Millis(2) * r;
    crash.kind = sim::FaultOp::Kind::kCrash;
    crash.a = static_cast<sim::NodeId>(opts.num_sites + 5 + r);
    opts.fault_schedule.ops.push_back(crash);
  }
  Experiment experiment(opts);
  experiment.Setup();
  const ExperimentResult result = experiment.Run();
  const ClientStats& s = result.aggregate;
  EXPECT_GT(s.dropped, 0u);
  EXPECT_EQ(s.sent, s.TotalCommitted() + s.rejected + s.dropped +
                        result.in_flight);
}

}  // namespace
}  // namespace samya::harness
