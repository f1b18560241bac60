#ifndef SAMYA_CONSENSUS_MULTIPAXOS_H_
#define SAMYA_CONSENSUS_MULTIPAXOS_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/token_api.h"
#include "consensus/state_machine.h"
#include "consensus/types.h"
#include "rt/node.h"
#include "storage/stable_storage.h"

namespace samya::consensus {

/// Message types 100-119.
inline constexpr uint32_t kMsgMpPrepare = 100;
inline constexpr uint32_t kMsgMpPromise = 101;
inline constexpr uint32_t kMsgMpAccept = 102;
inline constexpr uint32_t kMsgMpAccepted = 103;
inline constexpr uint32_t kMsgMpCommit = 104;
inline constexpr uint32_t kMsgMpHeartbeat = 105;

/// Options for a multi-Paxos replica.
struct MultiPaxosOptions {
  std::vector<rt::NodeId> group;     ///< replica ids, including self
  rt::NodeId initial_leader = 0;     ///< stable leader at startup
  Duration heartbeat_interval = Millis(75);
  Duration election_timeout = Millis(800);
  /// Admission cap at the leader: conflicting commands on the hot record are
  /// executed sequentially (§1 "Sequential execution"); arrivals beyond this
  /// queue depth are rejected so commit latency stays bounded under the
  /// paper's overload (throughput then equals replication capacity).
  size_t max_pending = 8;
  storage::StableStorage* storage = nullptr;
};

/// \brief Leader-based multi-Paxos replicated state machine ("Paxos made
/// live" style): stable leader, one Accept round per command, Prepare phase
/// only on leader change.
///
/// This is the engine of the paper's MultiPaxSys baseline: each token
/// transaction is replicated to a majority of geo-distributed replicas before
/// committing. Clients send `kMsgTokenRequest` to any replica; non-leaders
/// answer with a leader hint.
class MultiPaxosReplica : public rt::Node {
 public:
  MultiPaxosReplica(rt::NodeId id, rt::Region region, MultiPaxosOptions opts,
                    std::unique_ptr<StateMachine> sm);

  /// Wires durable storage (call before Start; the cluster owns it).
  void set_storage(storage::StableStorage* storage) { opts_.storage = storage; }

  void Start() override;
  void HandleMessage(rt::NodeId from, uint32_t type,
                     BufferReader& r) override;
  void HandleTimer(uint64_t token) override;
  void HandleCrash() override;
  void HandleRecover() override;

  bool IsLeader() const { return role_ == Role::kLeader; }
  rt::NodeId leader_hint() const { return leader_hint_; }
  int64_t committed_index() const { return commit_index_; }
  int64_t applied_index() const { return applied_index_; }
  const StateMachine& state_machine() const { return *sm_; }

  /// Log entry visible for safety tests.
  struct LogEntry {
    Ballot ballot;
    std::vector<uint8_t> command;
  };
  const std::map<int64_t, LogEntry>& log() const { return log_; }

 private:
  enum class Role { kLeader, kFollower, kCandidate };

  size_t Majority() const { return opts_.group.size() / 2 + 1; }
  void BecomeFollower(rt::NodeId leader);
  void StartElection();
  void ResetElectionTimer();
  void ProposeNext();
  void ApplyCommitted();
  void PersistEntry(int64_t index);
  void PersistBallot();
  void LoadDurableState();
  void BroadcastCommit();
  void RespondToClient(int64_t index, const std::vector<uint8_t>& response);

  void OnPrepare(rt::NodeId from, Ballot b, int64_t from_index);
  void OnPromise(rt::NodeId from, Ballot b, BufferReader& r);
  void OnAccept(rt::NodeId from, Ballot b, int64_t index,
                const std::vector<uint8_t>& cmd, int64_t commit_index);
  void OnAccepted(rt::NodeId from, Ballot b, int64_t index);
  void OnCommit(rt::NodeId from, Ballot b, int64_t commit_index);
  void OnClientRequest(rt::NodeId from, BufferReader& r);

  MultiPaxosOptions opts_;
  std::unique_ptr<StateMachine> sm_;

  Role role_ = Role::kFollower;
  rt::NodeId leader_hint_ = rt::kInvalidNode;
  Ballot ballot_;           // promised ballot (durable)
  Ballot leader_ballot_;    // ballot this leader leads with (leader only)

  std::map<int64_t, LogEntry> log_;  // accepted entries (durable)
  int64_t commit_index_ = -1;
  int64_t applied_index_ = -1;

  // Leader bookkeeping.
  struct Pending {
    rt::NodeId client = rt::kInvalidNode;
    std::vector<uint8_t> command;
  };
  std::deque<Pending> admission_queue_;
  std::optional<int64_t> inflight_index_;
  int inflight_acks_ = 0;
  std::map<int64_t, rt::NodeId> client_by_index_;

  // Election bookkeeping.
  int promises_ = 0;
  std::map<int64_t, std::pair<Ballot, std::vector<uint8_t>>> merged_entries_;
  uint64_t election_epoch_ = 0;
  SimTime last_leader_contact_ = 0;
};

}  // namespace samya::consensus

#endif  // SAMYA_CONSENSUS_MULTIPAXOS_H_
