#include "consensus/multipaxos.h"

#include <algorithm>

#include "common/logging.h"
#include "common/macros.h"

namespace samya::consensus {

namespace {
constexpr uint64_t kHeartbeatTimer = 1;
constexpr uint64_t kElectionTimer = 2;

const char* kKeyBallot = "mp/ballot";
const char* kKeyCommit = "mp/commit";

std::string LogKey(int64_t index) { return "mp/log/" + std::to_string(index); }
}  // namespace

MultiPaxosReplica::MultiPaxosReplica(rt::NodeId id, rt::Region region,
                                     MultiPaxosOptions opts,
                                     std::unique_ptr<StateMachine> sm)
    : Node(id, region), opts_(std::move(opts)), sm_(std::move(sm)) {
  SAMYA_CHECK(!opts_.group.empty());
}

void MultiPaxosReplica::Start() {
  LoadDurableState();
  if (id() == opts_.initial_leader) {
    role_ = Role::kLeader;
    leader_hint_ = id();
    leader_ballot_ = Ballot{ballot_.num + 1, id()};
    ballot_ = leader_ballot_;
    PersistBallot();
    SetTimer(opts_.heartbeat_interval, kHeartbeatTimer);
  } else {
    BecomeFollower(opts_.initial_leader);
  }
}

void MultiPaxosReplica::HandleCrash() {
  role_ = Role::kFollower;
  leader_hint_ = rt::kInvalidNode;
  log_.clear();
  commit_index_ = -1;
  applied_index_ = -1;
  admission_queue_.clear();
  inflight_index_.reset();
  inflight_acks_ = 0;
  client_by_index_.clear();
  merged_entries_.clear();
  promises_ = 0;
  ballot_ = Ballot{};
  leader_ballot_ = Ballot{};
}

void MultiPaxosReplica::HandleRecover() {
  // Rebuild from stable storage, re-applying the committed prefix (the state
  // machine itself is volatile; the log is the durable truth).
  LoadDurableState();
  BecomeFollower(rt::kInvalidNode);
}

void MultiPaxosReplica::LoadDurableState() {
  sm_->Reset();
  if (opts_.storage == nullptr) return;
  auto ballot = opts_.storage->Get(kKeyBallot);
  if (ballot.ok()) {
    BufferReader r(*ballot);
    ballot_ = Ballot::DecodeFrom(r).value();
  }
  auto commit = opts_.storage->Get(kKeyCommit);
  if (commit.ok()) {
    BufferReader r(*commit);
    commit_index_ = r.GetVarintSigned().value();
  }
  log_.clear();
  applied_index_ = -1;
  for (const auto& key : opts_.storage->Keys()) {
    if (key.rfind("mp/log/", 0) != 0) continue;
    const int64_t index = std::stoll(key.substr(7));
    auto bytes = opts_.storage->Get(key);
    SAMYA_CHECK(bytes.ok());
    BufferReader r(*bytes);
    LogEntry e;
    e.ballot = Ballot::DecodeFrom(r).value();
    const std::string cmd = r.GetString().value();
    e.command = std::vector<uint8_t>(cmd.begin(), cmd.end());
    log_[index] = std::move(e);
  }
  ApplyCommitted();
}

void MultiPaxosReplica::PersistBallot() {
  if (opts_.storage == nullptr) return;
  BufferWriter w;
  ballot_.EncodeTo(w);
  SAMYA_CHECK(opts_.storage->Put(kKeyBallot, w.buffer()).ok());
  BufferWriter wc;
  wc.PutVarintSigned(commit_index_);
  SAMYA_CHECK(opts_.storage->Put(kKeyCommit, wc.buffer()).ok());
}

void MultiPaxosReplica::PersistEntry(int64_t index) {
  if (opts_.storage == nullptr) return;
  const LogEntry& e = log_[index];
  BufferWriter w;
  e.ballot.EncodeTo(w);
  w.PutString(std::string(e.command.begin(), e.command.end()));
  SAMYA_CHECK(opts_.storage->Put(LogKey(index), w.buffer()).ok());
}

void MultiPaxosReplica::BecomeFollower(rt::NodeId leader) {
  role_ = Role::kFollower;
  leader_hint_ = leader;
  inflight_index_.reset();
  inflight_acks_ = 0;
  // Reject queued clients so they retry at the real leader.
  for (const auto& p : admission_queue_) {
    if (p.client == rt::kInvalidNode) continue;
    BufferReader r(p.command);
    auto req = TokenRequest::DecodeFrom(r);
    if (!req.ok()) continue;
    TokenResponse resp;
    resp.request_id = req->request_id;
    resp.status = TokenStatus::kNotLeader;
    resp.leader_hint = leader_hint_;
    BufferWriter w;
    resp.EncodeTo(w);
    Send(p.client, kMsgTokenResponse, w);
  }
  admission_queue_.clear();
  client_by_index_.clear();
  last_leader_contact_ = Now();
  ResetElectionTimer();
}

void MultiPaxosReplica::ResetElectionTimer() {
  ++election_epoch_;
  const Duration jitter = rng().UniformInt(0, opts_.election_timeout);
  SetTimer(opts_.election_timeout + jitter, kElectionTimer);
}

void MultiPaxosReplica::HandleTimer(uint64_t token) {
  if (token == kHeartbeatTimer) {
    if (role_ != Role::kLeader) return;
    BufferWriter w;
    leader_ballot_.EncodeTo(w);
    w.PutVarintSigned(commit_index_);
    for (rt::NodeId peer : opts_.group) {
      if (peer != id()) Send(peer, kMsgMpHeartbeat, w);
    }
    SetTimer(opts_.heartbeat_interval, kHeartbeatTimer);
    return;
  }
  SAMYA_CHECK_EQ(token, kElectionTimer);
  if (role_ == Role::kLeader) return;
  if (Now() - last_leader_contact_ >= opts_.election_timeout) {
    StartElection();
  }
  ResetElectionTimer();
}

void MultiPaxosReplica::StartElection() {
  role_ = Role::kCandidate;
  ballot_ = Ballot{ballot_.num + 1, id()};
  PersistBallot();
  promises_ = 0;
  merged_entries_.clear();
  // Seed the merge with our own accepted entries.
  for (const auto& [index, entry] : log_) {
    if (index > commit_index_) {
      merged_entries_[index] = {entry.ballot, entry.command};
    }
  }
  SAMYA_LOG_DEBUG("mp node %d starts election at ballot %s", id(),
                  ballot_.ToString().c_str());
  BufferWriter w;
  ballot_.EncodeTo(w);
  w.PutVarintSigned(commit_index_ + 1);  // send entries from here
  ++promises_;                           // self-promise
  for (rt::NodeId peer : opts_.group) {
    if (peer != id()) Send(peer, kMsgMpPrepare, w);
  }
}

void MultiPaxosReplica::HandleMessage(rt::NodeId from, uint32_t type,
                                      BufferReader& r) {
  // Every field decodes through Result before any handler runs: a frame
  // truncated or corrupted at any offset is dropped whole, mutating nothing
  // (the real backend's transport can deliver such frames; see rt/wire.h).
  switch (type) {
    case kMsgTokenRequest:
      OnClientRequest(from, r);
      break;
    case kMsgMpPrepare: {
      auto b = Ballot::DecodeFrom(r);
      auto from_index = r.GetVarintSigned();
      if (b.ok() && from_index.ok()) OnPrepare(from, *b, *from_index);
      break;
    }
    case kMsgMpPromise: {
      auto b = Ballot::DecodeFrom(r);
      if (b.ok()) OnPromise(from, *b, r);
      break;
    }
    case kMsgMpAccept: {
      auto b = Ballot::DecodeFrom(r);
      auto index = r.GetVarintSigned();
      auto cmd = r.GetString();
      auto commit = r.GetVarintSigned();
      if (!b.ok() || !index.ok() || !cmd.ok() || !commit.ok()) break;
      OnAccept(from, *b, *index, std::vector<uint8_t>(cmd->begin(), cmd->end()),
               *commit);
      break;
    }
    case kMsgMpAccepted: {
      auto b = Ballot::DecodeFrom(r);
      auto index = r.GetVarintSigned();
      if (b.ok() && index.ok()) OnAccepted(from, *b, *index);
      break;
    }
    case kMsgMpCommit:
    case kMsgMpHeartbeat: {
      auto b = Ballot::DecodeFrom(r);
      auto commit = r.GetVarintSigned();
      if (b.ok() && commit.ok()) OnCommit(from, *b, *commit);
      break;
    }
    default:
      SAMYA_LOG_DEBUG("multipaxos %d: dropping unknown message type %u",
                      id(), type);
      break;
  }
}

void MultiPaxosReplica::OnClientRequest(rt::NodeId from, BufferReader& r) {
  const size_t start = r.position();
  auto req = TokenRequest::DecodeFrom(r);
  if (!req.ok()) return;
  (void)start;

  if (role_ != Role::kLeader) {
    TokenResponse reject;
    reject.request_id = req->request_id;
    reject.status = TokenStatus::kNotLeader;
    reject.leader_hint = leader_hint_;
    BufferWriter w;
    reject.EncodeTo(w);
    Send(from, kMsgTokenResponse, w);
    return;
  }

  BufferWriter cmd;
  req->EncodeTo(cmd);

  if (req->op == TokenOp::kRead) {
    // Leader-lease read: served from applied state without replication.
    const auto resp = sm_->Query(cmd.buffer());
    BufferWriter w;
    w.PutBytes(resp.data(), resp.size());
    Send(from, kMsgTokenResponse, w);
    return;
  }

  if (admission_queue_.size() >= opts_.max_pending) {
    TokenResponse reject;
    reject.request_id = req->request_id;
    reject.status = TokenStatus::kOverloaded;
    reject.leader_hint = id();
    BufferWriter w;
    reject.EncodeTo(w);
    Send(from, kMsgTokenResponse, w);
    return;
  }
  admission_queue_.push_back(Pending{from, cmd.Release()});
  ProposeNext();
}

void MultiPaxosReplica::ProposeNext() {
  if (role_ != Role::kLeader || inflight_index_.has_value() ||
      admission_queue_.empty()) {
    return;
  }
  Pending p = std::move(admission_queue_.front());
  admission_queue_.pop_front();

  int64_t index = commit_index_;
  if (!log_.empty()) index = std::max(index, log_.rbegin()->first);
  ++index;

  log_[index] = LogEntry{leader_ballot_, p.command};
  PersistEntry(index);
  if (p.client != rt::kInvalidNode) client_by_index_[index] = p.client;
  inflight_index_ = index;
  inflight_acks_ = 1;  // self

  BufferWriter w;
  leader_ballot_.EncodeTo(w);
  w.PutVarintSigned(index);
  w.PutString(std::string(p.command.begin(), p.command.end()));
  w.PutVarintSigned(commit_index_);
  for (rt::NodeId peer : opts_.group) {
    if (peer != id()) Send(peer, kMsgMpAccept, w);
  }
}

void MultiPaxosReplica::OnPrepare(rt::NodeId from, Ballot b,
                                  int64_t from_index) {
  if (b <= ballot_) return;  // stale candidate
  ballot_ = b;
  PersistBallot();
  if (role_ == Role::kLeader || role_ == Role::kCandidate) {
    BecomeFollower(from);
  }
  last_leader_contact_ = Now();

  BufferWriter w;
  b.EncodeTo(w);
  w.PutVarintSigned(commit_index_);
  // Entries the candidate asked for.
  std::vector<int64_t> indices;
  for (const auto& [index, entry] : log_) {
    if (index >= from_index) indices.push_back(index);
  }
  w.PutVarint(indices.size());
  for (int64_t index : indices) {
    const LogEntry& e = log_[index];
    w.PutVarintSigned(index);
    e.ballot.EncodeTo(w);
    w.PutString(std::string(e.command.begin(), e.command.end()));
  }
  Send(from, kMsgMpPromise, w);
}

void MultiPaxosReplica::OnPromise(rt::NodeId from, Ballot b, BufferReader& r) {
  (void)from;
  if (role_ != Role::kCandidate || b != ballot_) return;
  // Decode the whole promise into locals before mutating anything: a frame
  // truncated mid-entry must not advance commit_index_ or count as a promise.
  auto peer_commit_r = r.GetVarintSigned();
  auto count_r = r.GetVarint();
  if (!peer_commit_r.ok() || !count_r.ok()) return;
  struct PromisedEntry {
    int64_t index;
    Ballot ballot;
    std::string cmd;
  };
  std::vector<PromisedEntry> decoded;
  decoded.reserve(std::min<uint64_t>(*count_r, r.remaining() / 2 + 1));
  for (uint64_t k = 0; k < *count_r; ++k) {
    auto index = r.GetVarintSigned();
    auto eb = Ballot::DecodeFrom(r);
    auto cmd = r.GetString();
    if (!index.ok() || !eb.ok() || !cmd.ok()) return;
    decoded.push_back(PromisedEntry{*index, *eb, std::move(*cmd)});
  }
  commit_index_ = std::max(commit_index_, *peer_commit_r);
  for (PromisedEntry& pe : decoded) {
    auto it = merged_entries_.find(pe.index);
    if (it == merged_entries_.end() || pe.ballot > it->second.first) {
      merged_entries_[pe.index] = {
          pe.ballot, std::vector<uint8_t>(pe.cmd.begin(), pe.cmd.end())};
    }
  }
  ++promises_;
  if (promises_ != static_cast<int>(Majority())) return;

  // Won: lead at this ballot and re-replicate every merged entry above the
  // commit point (they may or may not have been chosen; re-accepting them at
  // the higher ballot is safe and completes any half-finished command).
  role_ = Role::kLeader;
  leader_hint_ = id();
  leader_ballot_ = ballot_;
  SAMYA_LOG_INFO("mp node %d becomes leader at %s (commit=%lld)", id(),
                 ballot_.ToString().c_str(),
                 static_cast<long long>(commit_index_));
  for (auto& [index, entry] : merged_entries_) {
    if (index <= commit_index_) continue;
    admission_queue_.push_back(
        Pending{rt::kInvalidNode, std::move(entry.second)});
  }
  merged_entries_.clear();
  ApplyCommitted();
  SetTimer(opts_.heartbeat_interval, kHeartbeatTimer);
  ProposeNext();
}

void MultiPaxosReplica::OnAccept(rt::NodeId from, Ballot b, int64_t index,
                                 const std::vector<uint8_t>& cmd,
                                 int64_t commit_index) {
  if (b < ballot_) return;
  if (b > ballot_) {
    ballot_ = b;
    PersistBallot();
  }
  if (role_ != Role::kFollower || leader_hint_ != from) BecomeFollower(from);
  last_leader_contact_ = Now();

  log_[index] = LogEntry{b, cmd};
  PersistEntry(index);
  commit_index_ = std::max(commit_index_, commit_index);
  ApplyCommitted();

  BufferWriter w;
  b.EncodeTo(w);
  w.PutVarintSigned(index);
  Send(from, kMsgMpAccepted, w);
}

void MultiPaxosReplica::OnAccepted(rt::NodeId from, Ballot b, int64_t index) {
  (void)from;
  if (role_ != Role::kLeader || b != leader_ballot_) return;
  if (!inflight_index_.has_value() || *inflight_index_ != index) return;
  ++inflight_acks_;
  if (inflight_acks_ < static_cast<int>(Majority())) return;

  // Chosen: commit, apply, answer the client, move on to the next command.
  commit_index_ = std::max(commit_index_, index);
  PersistBallot();
  inflight_index_.reset();
  inflight_acks_ = 0;
  ApplyCommitted();

  BufferWriter w;
  leader_ballot_.EncodeTo(w);
  w.PutVarintSigned(commit_index_);
  for (rt::NodeId peer : opts_.group) {
    if (peer != id()) Send(peer, kMsgMpCommit, w);
  }
  ProposeNext();
}

void MultiPaxosReplica::OnCommit(rt::NodeId from, Ballot b,
                                 int64_t commit_index) {
  if (b < ballot_) return;
  if (b > ballot_) {
    ballot_ = b;
    PersistBallot();
  }
  // Heartbeats/commits come from the current leader: adopt it as our hint
  // (this is how followers learn the outcome of an election).
  if (role_ != Role::kFollower || leader_hint_ != from) {
    BecomeFollower(from);
  }
  last_leader_contact_ = Now();
  commit_index_ = std::max(commit_index_, commit_index);
  ApplyCommitted();
}

void MultiPaxosReplica::ApplyCommitted() {
  while (applied_index_ < commit_index_) {
    auto it = log_.find(applied_index_ + 1);
    if (it == log_.end()) break;  // hole: wait for catch-up via merge
    const auto response = sm_->Apply(it->second.command);
    ++applied_index_;
    RespondToClient(applied_index_, response);
  }
}

void MultiPaxosReplica::RespondToClient(int64_t index,
                                        const std::vector<uint8_t>& response) {
  auto it = client_by_index_.find(index);
  if (it == client_by_index_.end()) return;
  BufferWriter w;
  w.PutBytes(response.data(), response.size());
  Send(it->second, kMsgTokenResponse, w);
  client_by_index_.erase(it);
}

}  // namespace samya::consensus
