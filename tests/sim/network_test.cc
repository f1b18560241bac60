#include "sim/network.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/cluster.h"
#include "sim/fault_injector.h"

namespace samya::sim {
namespace {

constexpr uint32_t kPing = 1;
constexpr uint32_t kPong = 2;

/// Test node: replies kPong to kPing, records everything received.
class EchoNode : public Node {
 public:
  EchoNode(NodeId id, Region region) : Node(id, region) {}

  void HandleMessage(NodeId from, uint32_t type, BufferReader& r) override {
    std::string body = r.GetString().value();
    received.push_back({from, type, body, Now()});
    if (type == kPing) {
      BufferWriter w;
      w.PutString(body);
      Send(from, kPong, w);
    }
  }

  void SendPing(NodeId to, const std::string& body) {
    BufferWriter w;
    w.PutString(body);
    Send(to, kPing, w);
  }

  void HandleTimer(uint64_t token) override { timers.push_back(token); }
  void HandleCrash() override { ++crashes; }
  void HandleRecover() override { ++recoveries; }

  using Node::CancelTimer;
  using Node::SetTimer;

  struct Received {
    NodeId from;
    uint32_t type;
    std::string body;
    SimTime at;
  };
  std::vector<Received> received;
  std::vector<uint64_t> timers;
  int crashes = 0;
  int recoveries = 0;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : cluster_(/*seed=*/99) {
    a_ = cluster_.AddNode<EchoNode>(Region::kUsWest1);
    b_ = cluster_.AddNode<EchoNode>(Region::kEuropeWest2);
    c_ = cluster_.AddNode<EchoNode>(Region::kAsiaEast2);
  }

  Cluster cluster_;
  EchoNode* a_;
  EchoNode* b_;
  EchoNode* c_;
};

TEST_F(NetworkTest, DeliversWithGeoLatency) {
  a_->SendPing(b_->id(), "hello");
  cluster_.env().RunUntilIdle();
  ASSERT_EQ(b_->received.size(), 1u);
  EXPECT_EQ(b_->received[0].from, a_->id());
  EXPECT_EQ(b_->received[0].body, "hello");
  // us-west1 -> europe-west2 one-way base is 65ms; jitter adds a bit.
  EXPECT_GE(b_->received[0].at, Millis(65));
  EXPECT_LE(b_->received[0].at, Millis(90));
  // And the pong came back.
  ASSERT_EQ(a_->received.size(), 1u);
  EXPECT_EQ(a_->received[0].type, kPong);
  EXPECT_GE(a_->received[0].at, Millis(130));
}

TEST_F(NetworkTest, IntraRegionIsSubMillisecondBase) {
  LatencyModel m;
  EXPECT_LT(m.Base(Region::kUsWest1, Region::kUsWest1), Millis(1));
  EXPECT_EQ(m.Base(Region::kUsWest1, Region::kAsiaEast2),
            m.Base(Region::kAsiaEast2, Region::kUsWest1));
}

TEST_F(NetworkTest, CrashedReceiverDropsMessages) {
  cluster_.net().Crash(b_->id());
  a_->SendPing(b_->id(), "x");
  cluster_.env().RunUntilIdle();
  EXPECT_TRUE(b_->received.empty());
  // Liveness is checked at delivery time, so the drop is attributed there.
  EXPECT_EQ(cluster_.net().stats().messages_dropped_crashed, 1u);
  EXPECT_EQ(b_->crashes, 1);
}

TEST_F(NetworkTest, CrashedSenderSendsNothing) {
  cluster_.net().Crash(a_->id());
  a_->SendPing(b_->id(), "x");
  cluster_.env().RunUntilIdle();
  EXPECT_TRUE(b_->received.empty());
  EXPECT_EQ(cluster_.net().stats().messages_sent, 0u);
}

TEST_F(NetworkTest, RecoveryRestoresDelivery) {
  cluster_.net().Crash(b_->id());
  cluster_.net().Recover(b_->id());
  EXPECT_EQ(b_->recoveries, 1);
  a_->SendPing(b_->id(), "back");
  cluster_.env().RunUntilIdle();
  ASSERT_EQ(b_->received.size(), 1u);
}

TEST_F(NetworkTest, InFlightMessageToCrashingNodeIsLost) {
  a_->SendPing(b_->id(), "doomed");
  // Crash b before the ~65ms delivery.
  cluster_.env().Schedule(Millis(10), [&] { cluster_.net().Crash(b_->id()); });
  cluster_.env().RunUntilIdle();
  EXPECT_TRUE(b_->received.empty());
  EXPECT_EQ(cluster_.net().stats().messages_dropped_crashed, 1u);
}

TEST_F(NetworkTest, PartitionCutsCrossGroupTraffic) {
  cluster_.net().SetPartition({{a_->id(), c_->id()}, {b_->id()}});
  a_->SendPing(b_->id(), "cut");
  a_->SendPing(c_->id(), "ok");
  cluster_.env().RunUntilIdle();
  EXPECT_TRUE(b_->received.empty());
  ASSERT_EQ(c_->received.size(), 1u);
  EXPECT_EQ(cluster_.net().stats().messages_dropped_partition, 1u);

  cluster_.net().ClearPartition();
  a_->SendPing(b_->id(), "healed");
  cluster_.env().RunUntilIdle();
  ASSERT_EQ(b_->received.size(), 1u);
  EXPECT_EQ(b_->received[0].body, "healed");
}

TEST_F(NetworkTest, UnlistedNodesShareImplicitGroup) {
  cluster_.net().SetPartition({{a_->id()}});
  // b and c were not listed: they end up together, cut off from a.
  b_->SendPing(c_->id(), "peers");
  b_->SendPing(a_->id(), "cut");
  cluster_.env().RunUntilIdle();
  ASSERT_EQ(c_->received.size(), 1u);
  EXPECT_TRUE(a_->received.empty());
}

TEST_F(NetworkTest, MessageLossRate) {
  cluster_.net().set_loss_rate(1.0);
  a_->SendPing(b_->id(), "lost");
  cluster_.env().RunUntilIdle();
  EXPECT_TRUE(b_->received.empty());
  EXPECT_EQ(cluster_.net().stats().messages_dropped_loss, 1u);

  cluster_.net().set_loss_rate(0.0);
  a_->SendPing(b_->id(), "found");
  cluster_.env().RunUntilIdle();
  EXPECT_EQ(b_->received.size(), 1u);
}

TEST_F(NetworkTest, TimersFireWithToken) {
  a_->SetTimer(Millis(5), 42);
  a_->SetTimer(Millis(10), 43);
  cluster_.env().RunUntilIdle();
  EXPECT_EQ(a_->timers, (std::vector<uint64_t>{42, 43}));
}

TEST_F(NetworkTest, CancelledTimerDoesNotFire) {
  uint64_t t = a_->SetTimer(Millis(5), 1);
  a_->CancelTimer(t);
  cluster_.env().RunUntilIdle();
  EXPECT_TRUE(a_->timers.empty());
}

TEST_F(NetworkTest, CrashKillsPendingTimers) {
  a_->SetTimer(Millis(50), 7);
  cluster_.env().Schedule(Millis(10), [&] { cluster_.net().Crash(a_->id()); });
  cluster_.env().Schedule(Millis(20), [&] { cluster_.net().Recover(a_->id()); });
  cluster_.env().RunUntilIdle();
  EXPECT_TRUE(a_->timers.empty());  // timer armed pre-crash must not fire
}

TEST_F(NetworkTest, FaultInjectorSchedules) {
  FaultInjector faults(&cluster_.net());
  faults.CrashAt(Millis(10), b_->id());
  faults.RecoverAt(Millis(30), b_->id());
  faults.PartitionAt(Millis(40), {{a_->id()}, {b_->id(), c_->id()}});
  faults.HealAt(Millis(50));

  cluster_.env().RunUntil(Millis(20));
  EXPECT_FALSE(b_->alive());
  cluster_.env().RunUntil(Millis(35));
  EXPECT_TRUE(b_->alive());
  cluster_.env().RunUntil(Millis(45));
  EXPECT_TRUE(cluster_.net().Partitioned());
  cluster_.env().RunUntil(Millis(55));
  EXPECT_FALSE(cluster_.net().Partitioned());
}

TEST_F(NetworkTest, StableStorageSurvivesCrash) {
  auto* store = cluster_.StorageFor(a_->id());
  ASSERT_TRUE(store->PutString("ballot", "7:1").ok());
  cluster_.net().Crash(a_->id());
  cluster_.net().Recover(a_->id());
  EXPECT_EQ(cluster_.StorageFor(a_->id())->GetString("ballot").value(), "7:1");
}

TEST_F(NetworkTest, DeterministicAcrossRuns) {
  // Two identically-seeded clusters produce identical delivery timestamps.
  auto run = [](uint64_t seed) {
    Cluster c(seed);
    auto* x = c.AddNode<EchoNode>(Region::kUsWest1);
    auto* y = c.AddNode<EchoNode>(Region::kAsiaEast2);
    for (int i = 0; i < 20; ++i) x->SendPing(y->id(), std::to_string(i));
    c.env().RunUntilIdle();
    std::vector<SimTime> times;
    for (const auto& m : y->received) times.push_back(m.at);
    return times;
  };
  EXPECT_EQ(run(1234), run(1234));
  EXPECT_NE(run(1234), run(5678));
}

TEST_F(NetworkTest, MessageTapObservesSendsAndDrops) {
  struct Tapped {
    uint32_t type;
    TapEvent event;
  };
  std::vector<Tapped> taps;
  cluster_.net().set_message_tap(
      [&](SimTime, sim::NodeId, sim::NodeId, uint32_t type, size_t bytes,
          TapEvent ev) {
        EXPECT_GT(bytes, 0u);
        taps.push_back({type, ev});
      });
  a_->SendPing(b_->id(), "one");
  cluster_.env().RunUntilIdle();
  // Each delivered message taps twice: kSent then kDelivered. Ping + pong.
  ASSERT_EQ(taps.size(), 4u);
  EXPECT_EQ(taps[0].type, kPing);
  EXPECT_EQ(taps[0].event, TapEvent::kSent);
  EXPECT_EQ(taps[1].event, TapEvent::kDelivered);
  EXPECT_EQ(taps[2].type, kPong);

  cluster_.net().set_loss_rate(1.0);
  a_->SendPing(b_->id(), "two");
  cluster_.env().RunUntilIdle();
  ASSERT_EQ(taps.size(), 5u);  // a send-time drop taps exactly once
  EXPECT_EQ(taps[4].event, TapEvent::kDroppedAtSend);

  cluster_.net().set_message_tap(nullptr);
  cluster_.net().set_loss_rate(0.0);
  a_->SendPing(b_->id(), "three");
  cluster_.env().RunUntilIdle();
  EXPECT_EQ(taps.size(), 5u);  // tap removed
}

TEST_F(NetworkTest, MessageTapReportsDeliveryTimeDrops) {
  std::vector<TapEvent> events;
  cluster_.net().set_message_tap(
      [&](SimTime, sim::NodeId, sim::NodeId, uint32_t, size_t, TapEvent ev) {
        events.push_back(ev);
      });
  a_->SendPing(b_->id(), "doomed");
  // Crash b before the ~65ms delivery: the drop happens at delivery time and
  // must be reported, not silently swallowed.
  cluster_.env().Schedule(Millis(10), [&] { cluster_.net().Crash(b_->id()); });
  cluster_.env().RunUntilIdle();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], TapEvent::kSent);
  EXPECT_EQ(events[1], TapEvent::kDroppedAtDelivery);
  EXPECT_EQ(cluster_.net().stats().messages_dropped_crashed, 1u);
}

TEST_F(NetworkTest, OneWayLinkCutIsAsymmetric) {
  cluster_.net().CutLink(a_->id(), b_->id());
  EXPECT_TRUE(cluster_.net().LinkCut(a_->id(), b_->id()));
  EXPECT_FALSE(cluster_.net().LinkCut(b_->id(), a_->id()));

  a_->SendPing(b_->id(), "blocked");
  b_->SendPing(a_->id(), "open");
  cluster_.env().RunUntilIdle();
  // a->b cut at send time; b->a delivered, but a's pong back rides the cut
  // a->b direction and is dropped too.
  EXPECT_TRUE(b_->received.empty());
  ASSERT_EQ(a_->received.size(), 1u);
  EXPECT_EQ(a_->received[0].type, kPing);
  EXPECT_EQ(cluster_.net().stats().messages_dropped_link, 2u);

  cluster_.net().RestoreLink(a_->id(), b_->id());
  a_->SendPing(b_->id(), "restored");
  cluster_.env().RunUntilIdle();
  ASSERT_EQ(b_->received.size(), 1u);
  EXPECT_EQ(b_->received[0].body, "restored");
}

TEST_F(NetworkTest, LinkCutFormedMidFlightDropsAtDelivery) {
  a_->SendPing(b_->id(), "doomed");
  cluster_.env().Schedule(
      Millis(10), [&] { cluster_.net().CutLink(a_->id(), b_->id()); });
  cluster_.env().RunUntilIdle();
  EXPECT_TRUE(b_->received.empty());
  EXPECT_EQ(cluster_.net().stats().messages_dropped_link, 1u);
}

TEST_F(NetworkTest, GlobalDelayFactorStretchesLatency) {
  cluster_.net().set_delay_factor(10.0);
  a_->SendPing(b_->id(), "slow");
  cluster_.env().RunUntilIdle();
  ASSERT_EQ(b_->received.size(), 1u);
  // us-west1 -> europe-west2 base is 65ms; 10x puts it at >= 650ms.
  EXPECT_GE(b_->received[0].at, Millis(650));
}

TEST_F(NetworkTest, PerLinkDelayFactorIsDirectional) {
  cluster_.net().SetLinkDelayFactor(a_->id(), b_->id(), 10.0);
  a_->SendPing(b_->id(), "slow");
  cluster_.env().RunUntilIdle();
  ASSERT_EQ(b_->received.size(), 1u);
  ASSERT_EQ(a_->received.size(), 1u);
  EXPECT_GE(b_->received[0].at, Millis(650));  // a->b stretched 10x
  // The pong b->a is not stretched: it arrives well under 10x after the ping.
  EXPECT_LE(a_->received[0].at - b_->received[0].at, Millis(90));

  // Factor 1.0 removes the override.
  cluster_.net().SetLinkDelayFactor(a_->id(), b_->id(), 1.0);
  const SimTime t0 = cluster_.env().Now();
  a_->SendPing(b_->id(), "fast");
  cluster_.env().RunUntilIdle();
  ASSERT_EQ(b_->received.size(), 2u);
  EXPECT_LE(b_->received[1].at - t0, Millis(90));
}

TEST_F(NetworkTest, DuplicateDeliveryCountsAndDelivers) {
  cluster_.net().set_duplicate_rate(1.0);
  a_->SendPing(b_->id(), "twice");
  cluster_.env().RunUntilIdle();
  // Ping duplicated -> b receives 2 pings, sends 2 pongs, each duplicated
  // -> a receives 4 pongs.
  EXPECT_EQ(b_->received.size(), 2u);
  EXPECT_EQ(a_->received.size(), 4u);
  EXPECT_EQ(cluster_.net().stats().messages_duplicated, 3u);  // 1 ping + 2 pongs
  EXPECT_EQ(cluster_.net().stats().messages_sent, 3u);        // dups not counted
  EXPECT_EQ(cluster_.net().stats().messages_delivered, 6u);
  for (const auto& m : b_->received) EXPECT_EQ(m.body, "twice");
}

TEST_F(NetworkTest, ClearLinkFaultsRemovesCutsAndDelays) {
  cluster_.net().CutLink(a_->id(), b_->id());
  cluster_.net().SetLinkDelayFactor(b_->id(), a_->id(), 50.0);
  cluster_.net().ClearLinkFaults();
  EXPECT_FALSE(cluster_.net().LinkCut(a_->id(), b_->id()));
  a_->SendPing(b_->id(), "ok");
  cluster_.env().RunUntilIdle();
  ASSERT_EQ(b_->received.size(), 1u);
  ASSERT_EQ(a_->received.size(), 1u);
  EXPECT_LE(a_->received[0].at, Millis(200));  // pong not stretched 50x
}

TEST_F(NetworkTest, DropStatAccountingIsExclusive) {
  // Partition drop, link drop, loss drop, and crashed-receiver drop each
  // land in exactly one counter.
  cluster_.net().SetPartition({{a_->id()}, {b_->id(), c_->id()}});
  a_->SendPing(b_->id(), "p");  // partition, at send
  cluster_.net().ClearPartition();

  cluster_.net().CutLink(a_->id(), b_->id());
  a_->SendPing(b_->id(), "l");  // link cut, at send
  cluster_.net().ClearLinkFaults();

  cluster_.net().set_loss_rate(1.0);
  a_->SendPing(b_->id(), "x");  // loss
  cluster_.net().set_loss_rate(0.0);

  cluster_.net().Crash(b_->id());
  a_->SendPing(b_->id(), "c");  // crashed receiver, at delivery
  cluster_.env().RunUntilIdle();

  const NetworkStats& s = cluster_.net().stats();
  EXPECT_EQ(s.messages_sent, 4u);
  EXPECT_EQ(s.messages_dropped_partition, 1u);
  EXPECT_EQ(s.messages_dropped_link, 1u);
  EXPECT_EQ(s.messages_dropped_loss, 1u);
  EXPECT_EQ(s.messages_dropped_crashed, 1u);
  EXPECT_EQ(s.messages_delivered, 0u);
}

TEST_F(NetworkTest, ImplicitFinalGroupCountsPartitionDrops) {
  // Only a is listed; b and c share the implicit final group.
  cluster_.net().SetPartition({{a_->id()}});
  EXPECT_TRUE(cluster_.net().CanCommunicate(b_->id(), c_->id()));
  EXPECT_FALSE(cluster_.net().CanCommunicate(a_->id(), b_->id()));
  EXPECT_FALSE(cluster_.net().CanCommunicate(a_->id(), c_->id()));
  a_->SendPing(b_->id(), "cut");
  a_->SendPing(c_->id(), "cut");
  b_->SendPing(c_->id(), "peers");
  cluster_.env().RunUntilIdle();
  EXPECT_EQ(cluster_.net().stats().messages_dropped_partition, 2u);
  ASSERT_EQ(c_->received.size(), 1u);
}

TEST_F(NetworkTest, RandomChurnWindowsAreDisjointPerNode) {
  FaultInjector faults(&cluster_.net());
  Rng rng(7);
  // Aggressive parameters that overlapped under the old implementation:
  // downtime comparable to horizon / crashes_per_node.
  faults.RandomChurn({a_->id(), b_->id()}, Seconds(10), /*crashes_per_node=*/8,
                     /*downtime=*/Millis(1200), rng);
  cluster_.env().RunUntilIdle();
  // Every crash must find the node alive and every recover must find it
  // crashed (Network::Crash/Recover are idempotent no-ops otherwise, which
  // would make the counts diverge from the schedule).
  EXPECT_EQ(a_->crashes, 8);
  EXPECT_EQ(a_->recoveries, 8);
  EXPECT_EQ(b_->crashes, 8);
  EXPECT_EQ(b_->recoveries, 8);
  EXPECT_TRUE(a_->alive());
  EXPECT_TRUE(b_->alive());
}

TEST_F(NetworkTest, StatsCountBytes) {
  a_->SendPing(b_->id(), "12345");
  cluster_.env().RunUntilIdle();
  EXPECT_GT(cluster_.net().stats().bytes_sent, 5u);
  EXPECT_EQ(cluster_.net().stats().messages_sent, 2u);  // ping + pong
  EXPECT_EQ(cluster_.net().stats().messages_delivered, 2u);
}

TEST_F(NetworkTest, LinkCountersAreOffWithoutMetrics) {
  a_->SendPing(b_->id(), "x");
  cluster_.env().RunUntilIdle();
  EXPECT_TRUE(cluster_.net().link_counters().empty());
}

TEST_F(NetworkTest, LinkCounterDropAccountingSumsToAttempts) {
  obs::MetricsRegistry metrics;
  cluster_.net().set_observability(&metrics, nullptr);

  // Exercise every lifecycle outcome: plain deliveries, a send-time loss,
  // a send-time link cut, a delivery-time crash drop, and duplicates.
  a_->SendPing(b_->id(), "ok");  // + pong back
  cluster_.env().RunUntilIdle();

  cluster_.net().set_loss_rate(1.0);
  a_->SendPing(b_->id(), "lost");
  cluster_.net().set_loss_rate(0.0);

  cluster_.net().CutLink(a_->id(), c_->id());
  a_->SendPing(c_->id(), "cut");
  cluster_.net().ClearLinkFaults();

  a_->SendPing(b_->id(), "doomed");
  cluster_.env().Schedule(Millis(10), [&] { cluster_.net().Crash(b_->id()); });
  cluster_.env().RunUntilIdle();
  cluster_.net().Recover(b_->id());

  cluster_.net().set_duplicate_rate(1.0);
  a_->SendPing(b_->id(), "twice");
  cluster_.net().set_duplicate_rate(0.0);
  cluster_.env().RunUntilIdle();

  const auto& links = cluster_.net().link_counters();
  ASSERT_FALSE(links.empty());
  uint64_t attempts = 0;
  uint64_t terminal = 0;
  for (const auto& [key, lc] : links) {
    // The invariant per directed link: every attempted or duplicated copy
    // meets exactly one terminal fate.
    EXPECT_EQ(lc.attempts + lc.duplicated,
              lc.dropped_at_send + lc.delivered + lc.dropped_at_delivery)
        << "link " << Network::LinkKeyFrom(key) << "->"
        << Network::LinkKeyTo(key);
    attempts += lc.attempts;
    terminal += lc.dropped_at_send + lc.delivered + lc.dropped_at_delivery;
  }
  const NetworkStats& s = cluster_.net().stats();
  EXPECT_EQ(attempts, s.messages_sent);
  EXPECT_EQ(terminal, s.messages_sent + s.messages_duplicated);

  const auto a_to_b = links.find((static_cast<uint64_t>(a_->id() + 1) << 32) |
                                 static_cast<uint64_t>(b_->id() + 1));
  ASSERT_NE(a_to_b, links.end());
  EXPECT_EQ(a_to_b->second.dropped_at_send, 1u);      // the loss
  EXPECT_EQ(a_to_b->second.dropped_at_delivery, 1u);  // the crash drop
  EXPECT_EQ(a_to_b->second.duplicated, 1u);
  EXPECT_GT(a_to_b->second.bytes, 0u);
  EXPECT_EQ(Network::LinkKeyFrom(a_to_b->first), a_->id());
  EXPECT_EQ(Network::LinkKeyTo(a_to_b->first), b_->id());

  const auto a_to_c = links.find((static_cast<uint64_t>(a_->id() + 1) << 32) |
                                 static_cast<uint64_t>(c_->id() + 1));
  ASSERT_NE(a_to_c, links.end());
  EXPECT_EQ(a_to_c->second.dropped_at_send, 1u);  // the link cut
}

}  // namespace
}  // namespace samya::sim
