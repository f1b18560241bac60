#include "harness/experiment.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace samya::harness
