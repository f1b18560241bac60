#include "consensus/multipaxos.h"

#include <gtest/gtest.h>

#include "consensus/token_sm.h"
#include "harness/workload_client.h"
#include "sim/cluster.h"

namespace samya::consensus {
namespace {

using harness::WorkloadClient;
using harness::WorkloadClientOptions;
using workload::Request;

/// Builds a 5-replica group in the paper's MultiPaxSys placement: 3 US
/// regions plus Europe and Asia, leader in us-west1.
struct MpDeployment {
  std::vector<MultiPaxosReplica*> replicas;
};

MpDeployment MakeGroup(sim::Cluster& cluster, int64_t limit,
                       size_t max_pending = 8) {
  static const sim::Region kPlacement[5] = {
      sim::Region::kUsWest1, sim::Region::kUsCentral1, sim::Region::kUsEast1,
      sim::Region::kEuropeWest2, sim::Region::kAsiaEast2};
  MpDeployment d;
  std::vector<sim::NodeId> ids = {0, 1, 2, 3, 4};
  for (int i = 0; i < 5; ++i) {
    MultiPaxosOptions opts;
    opts.group = ids;
    opts.initial_leader = 0;
    opts.max_pending = max_pending;
    auto* node = cluster.AddNode<MultiPaxosReplica>(
        kPlacement[i], opts, std::make_unique<TokenStateMachine>(limit));
    node->set_storage(cluster.StorageFor(node->id()));
    d.replicas.push_back(node);
  }
  return d;
}

std::vector<Request> Script(std::vector<std::pair<Request::Type, SimTime>> rs) {
  std::vector<Request> out;
  for (auto& [type, at] : rs) out.push_back({at, type, 1});
  return out;
}

TEST(MultiPaxosTest, CommitsAcquireThroughLeader) {
  sim::Cluster cluster(1);
  auto d = MakeGroup(cluster, 100);
  WorkloadClientOptions copts;
  copts.servers = {0};
  auto* client = cluster.AddNode<WorkloadClient>(
      sim::Region::kUsWest1, copts,
      Script({{Request::Type::kAcquire, Millis(10)},
              {Request::Type::kAcquire, Millis(20)},
              {Request::Type::kRelease, Millis(400)}}));
  cluster.StartAll();
  cluster.env().RunFor(Seconds(3));

  EXPECT_EQ(client->stats().committed_acquires, 2u);
  EXPECT_EQ(client->stats().committed_releases, 1u);
  // Every replica converges to acquired = 1.
  for (auto* r : d.replicas) {
    const auto& sm = static_cast<const TokenStateMachine&>(r->state_machine());
    EXPECT_EQ(sm.acquired(), 1) << "replica " << r->id();
  }
}

TEST(MultiPaxosTest, RejectsAcquireBeyondLimit) {
  sim::Cluster cluster(2);
  MakeGroup(cluster, 2);
  WorkloadClientOptions copts;
  copts.servers = {0};
  std::vector<Request> script;
  for (int i = 0; i < 5; ++i) {
    script.push_back({Millis(10 + 200 * i), Request::Type::kAcquire, 1});
  }
  auto* client =
      cluster.AddNode<WorkloadClient>(sim::Region::kUsWest1, copts, script);
  cluster.StartAll();
  cluster.env().RunFor(Seconds(5));
  EXPECT_EQ(client->stats().committed_acquires, 2u);
  EXPECT_EQ(client->stats().rejected, 3u);
}

TEST(MultiPaxosTest, NonLeaderRedirectsClient) {
  sim::Cluster cluster(3);
  MakeGroup(cluster, 100);
  WorkloadClientOptions copts;
  copts.servers = {3, 0};  // prefers the Europe replica (not leader)
  auto* client = cluster.AddNode<WorkloadClient>(
      sim::Region::kEuropeWest2, copts,
      Script({{Request::Type::kAcquire, Millis(10)}}));
  cluster.StartAll();
  cluster.env().RunFor(Seconds(3));
  EXPECT_EQ(client->stats().committed_acquires, 1u);
}

TEST(MultiPaxosTest, LeaderReadsServeLocally) {
  sim::Cluster cluster(4);
  MakeGroup(cluster, 100);
  WorkloadClientOptions copts;
  copts.servers = {0};
  auto* client = cluster.AddNode<WorkloadClient>(
      sim::Region::kUsWest1, copts,
      Script({{Request::Type::kAcquire, Millis(10)},
              {Request::Type::kRead, Millis(500)}}));
  cluster.StartAll();
  cluster.env().RunFor(Seconds(2));
  EXPECT_EQ(client->stats().committed_reads, 1u);
  // Reads bypass replication: latency well below a replication round.
  // (Acquire needs ~2x us-west<->us-east one-way = ~60ms+; the read is
  // sub-millisecond network-wise from the colocated client.)
  EXPECT_LT(client->stats().latency.min(), Millis(10));
}

TEST(MultiPaxosTest, FailsOverWhenLeaderCrashes) {
  sim::Cluster cluster(5);
  auto d = MakeGroup(cluster, 100);
  WorkloadClientOptions copts;
  copts.servers = {1, 2, 3};  // never contacts the dead node 0
  copts.max_attempts = 8;
  copts.request_timeout = Millis(400);
  auto* client = cluster.AddNode<WorkloadClient>(
      sim::Region::kUsCentral1, copts,
      Script({{Request::Type::kAcquire, Seconds(3)}}));
  cluster.StartAll();
  cluster.env().Schedule(Seconds(1), [&] { cluster.net().Crash(0); });
  cluster.env().RunFor(Seconds(12));

  EXPECT_EQ(client->stats().committed_acquires, 1u);
  int leaders = 0;
  for (auto* r : d.replicas) {
    if (r->id() != 0 && r->IsLeader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(MultiPaxosTest, StateSurvivesCrashRecover) {
  sim::Cluster cluster(6);
  auto d = MakeGroup(cluster, 100);
  WorkloadClientOptions copts;
  copts.servers = {0};
  auto* client = cluster.AddNode<WorkloadClient>(
      sim::Region::kUsWest1, copts,
      Script({{Request::Type::kAcquire, Millis(10)},
              {Request::Type::kAcquire, Millis(300)}}));
  cluster.StartAll();
  cluster.env().RunFor(Seconds(2));
  ASSERT_EQ(client->stats().committed_acquires, 2u);

  // Crash and recover a follower: it must rebuild acquired=2 from its log.
  cluster.net().Crash(1);
  cluster.env().RunFor(Seconds(1));
  cluster.net().Recover(1);
  cluster.env().RunFor(Seconds(2));
  const auto& sm =
      static_cast<const TokenStateMachine&>(d.replicas[1]->state_machine());
  EXPECT_EQ(sm.acquired(), 2);
}

TEST(MultiPaxosTest, AdmissionCapRejectsOverload) {
  sim::Cluster cluster(7);
  MakeGroup(cluster, 10000, /*max_pending=*/2);
  WorkloadClientOptions copts;
  copts.servers = {0};
  copts.max_attempts = 1;  // no retry: observe raw overload behaviour
  // 50 simultaneous arrivals versus a queue of 2 and ~60ms commits.
  std::vector<Request> script;
  for (int i = 0; i < 50; ++i) {
    script.push_back({Millis(10), Request::Type::kAcquire, 1});
  }
  auto* client =
      cluster.AddNode<WorkloadClient>(sim::Region::kUsWest1, copts, script);
  cluster.StartAll();
  cluster.env().RunFor(Seconds(5));
  EXPECT_GT(client->stats().dropped, 30u);
  EXPECT_LE(client->stats().committed_acquires, 10u);
  EXPECT_GE(client->stats().committed_acquires, 3u);
}

TEST(MultiPaxosTest, ReplicatedLogsAgreeOnCommittedPrefix) {
  sim::Cluster cluster(8);
  auto d = MakeGroup(cluster, 1000);
  WorkloadClientOptions copts;
  copts.servers = {0};
  std::vector<Request> script;
  for (int i = 0; i < 20; ++i) {
    script.push_back({Millis(50 * i), Request::Type::kAcquire, 1});
  }
  auto* client =
      cluster.AddNode<WorkloadClient>(sim::Region::kUsWest1, copts, script);
  cluster.StartAll();
  cluster.env().RunFor(Seconds(10));
  ASSERT_EQ(client->stats().committed_acquires, 20u);

  // Committed prefixes must carry identical commands.
  const auto& leader_log = d.replicas[0]->log();
  for (auto* r : d.replicas) {
    for (const auto& [index, entry] : r->log()) {
      if (index > r->committed_index()) continue;
      auto it = leader_log.find(index);
      ASSERT_NE(it, leader_log.end());
      EXPECT_EQ(entry.command, it->second.command)
          << "replica " << r->id() << " index " << index;
    }
  }
}

TEST(MultiPaxosTest, ThroughputIsReplicationBound) {
  // The §1 observation: a single hot record commits at ~1/(majority RTT).
  sim::Cluster cluster(9);
  MakeGroup(cluster, 1000000);
  WorkloadClientOptions copts;
  copts.servers = {0};
  copts.max_attempts = 1;
  std::vector<Request> script;
  // Offered load: 500 tps for 4 seconds, far beyond capacity.
  for (int i = 0; i < 2000; ++i) {
    script.push_back({Millis(2 * i), Request::Type::kAcquire, 1});
  }
  auto* client =
      cluster.AddNode<WorkloadClient>(sim::Region::kUsWest1, copts, script);
  cluster.StartAll();
  cluster.env().RunFor(Seconds(8));
  const double tps =
      static_cast<double>(client->stats().TotalCommitted()) / 4.0;
  // Majority = leader(us-west) + us-central(17ms) + us-east(30ms): ~60ms
  // round trip -> on the order of 15-40 commits/s, nowhere near 500.
  EXPECT_GT(tps, 8);
  EXPECT_LT(tps, 60);
}

}  // namespace
}  // namespace samya::consensus
