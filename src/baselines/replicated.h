#ifndef SAMYA_BASELINES_REPLICATED_H_
#define SAMYA_BASELINES_REPLICATED_H_

#include <memory>
#include <vector>

#include "consensus/multipaxos.h"
#include "consensus/raft.h"
#include "consensus/token_sm.h"

namespace samya::baselines {

/// Replica placement of the MultiPaxSys / CockroachDB-like baselines (§5.2):
/// "3 out of 5 sites in different regions within the US, and 2 others in
/// Asia and Europe", leader in us-west1.
inline constexpr std::array<rt::Region, 5> kReplicatedPlacement = {
    rt::Region::kUsWest1, rt::Region::kUsCentral1, rt::Region::kUsEast1,
    rt::Region::kEuropeWest2, rt::Region::kAsiaEast2};

/// A deployed 5-replica group (either protocol); `replica_ids` are the
/// node ids clients should target.
struct ReplicatedGroup {
  std::vector<rt::NodeId> replica_ids;
  std::vector<consensus::MultiPaxosReplica*> multipaxos;  // kMultiPaxSys only
  std::vector<consensus::RaftNode*> raft;              // kCockroachLike only
};

/// Builds the paper's MultiPaxSys baseline: a 5-replica leader-based
/// multi-Paxos group replicating a bounded token counter with limit M_e.
///
/// Templated over the cluster type so the same builder deploys onto the
/// simulator (`sim::Cluster`) or the real-socket backend
/// (`rt::RealCluster`); both expose `AddNode<T>(region, args...)`,
/// `StorageFor(id)`, and `num_nodes()`.
template <typename Cluster>
ReplicatedGroup CreateMultiPaxSys(Cluster& cluster, int64_t max_tokens,
                                  size_t max_pending = 2) {
  ReplicatedGroup group;
  const rt::NodeId first = static_cast<rt::NodeId>(cluster.num_nodes());
  std::vector<rt::NodeId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(first + i);

  for (int i = 0; i < 5; ++i) {
    consensus::MultiPaxosOptions opts;
    opts.group = ids;
    opts.initial_leader = first;  // us-west1, adjacent to the US majority
    opts.max_pending = max_pending;
    auto* node = cluster.template AddNode<consensus::MultiPaxosReplica>(
        kReplicatedPlacement[static_cast<size_t>(i)], opts,
        std::make_unique<consensus::TokenStateMachine>(max_tokens));
    node->set_storage(cluster.StorageFor(node->id()));
    group.multipaxos.push_back(node);
  }
  group.replica_ids = ids;
  return group;
}

/// Builds the CockroachDB-like baseline: the same placement and state
/// machine, replicated with Raft. Templated like `CreateMultiPaxSys`.
template <typename Cluster>
ReplicatedGroup CreateCockroachLike(Cluster& cluster, int64_t max_tokens,
                                    size_t max_pending = 2) {
  ReplicatedGroup group;
  const rt::NodeId first = static_cast<rt::NodeId>(cluster.num_nodes());
  std::vector<rt::NodeId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(first + i);

  for (int i = 0; i < 5; ++i) {
    consensus::RaftOptions opts;
    opts.group = ids;
    opts.initial_leader = first;
    opts.max_pending = max_pending;
    auto* node = cluster.template AddNode<consensus::RaftNode>(
        kReplicatedPlacement[static_cast<size_t>(i)], opts,
        std::make_unique<consensus::TokenStateMachine>(max_tokens));
    node->set_storage(cluster.StorageFor(node->id()));
    group.raft.push_back(node);
  }
  group.replica_ids = ids;
  return group;
}

}  // namespace samya::baselines

#endif  // SAMYA_BASELINES_REPLICATED_H_
