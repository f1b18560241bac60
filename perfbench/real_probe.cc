// fig3b's real-backend twin, measured in its per-layer run:
// harness::RealHarness's Fig 3b-shaped scripts (5 sites, 5 app managers,
// 5 open-loop clients) run by RealHarness::RunReal on rt::RealCluster over
// localhost UDP, with the paper's latency matrix applied by the in-process
// netem, and by RealHarness::RunSim on the simulator.

#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "common/random.h"
#include "common/token_api.h"
#include "harness/real_harness.h"
#include "probes.h"
#include "rt/real_cluster.h"
#include "rt/wire.h"

namespace perfbench {
namespace {

using samya::JsonValue;
using samya::harness::BackendRun;
using samya::harness::RealHarness;
using samya::harness::RealHarnessOptions;
using samya::workload::Request;

/// 5 rounds of 200 requests give the latency percentiles, so the p99 has
/// ten samples beyond it.
constexpr int kRounds = 5;

/// A node that never receives anything: the wake-lateness probe's target.
class IdleNode final : public samya::rt::Node {
 public:
  using Node::Node;
  void HandleMessage(samya::rt::NodeId, uint32_t,
                     samya::BufferReader&) override {}
};

/// The end-of-run state of one backend run, as the checks read it.
Ledger LedgerOf(const BackendRun& run, int64_t max_tokens) {
  Ledger l;
  l.max_tokens = max_tokens;
  l.pooled_tokens = run.total_site_tokens;
  l.site_net_acquires = run.server_net_acquires;
  l.client_acquires = run.aggregate.committed_acquires;
  l.client_releases = run.aggregate.committed_releases;
  l.client_reads = run.aggregate.committed_reads;
  l.sent = run.aggregate.sent;
  l.rejected = run.aggregate.rejected;
  l.dropped = run.aggregate.dropped;
  l.min_latency_us = run.aggregate.latency.min();
  l.messages_sent = run.messages_sent;
  return l;
}

/// How late each request left its client: the send records in the flight
/// dump against the due times in the client's script. The client skips a
/// release while it holds no tokens, so the replay tracks the client's
/// balance from its acquire replies (FIFO per client) to tell which script
/// entry each send belongs to. Returns false, adding nothing, when the
/// replay cannot account for every send.
bool GeneratorLateness(const std::vector<Request>& script,
                       const JsonValue& events, int64_t client,
                       std::vector<double>* late_ms) {
  std::vector<int64_t> sends, replies;
  for (const JsonValue& ev : events.as_array()) {
    if (ev.GetInt("site", -1) != client) continue;
    const std::string kind = ev.GetString("kind", "");
    const int64_t type = ev.GetInt("a", -1);
    if (kind == "msg_send" && type == samya::kMsgTokenRequest) {
      sends.push_back(ev.GetInt("at", 0));
    } else if (kind == "msg_deliver" && type == samya::kMsgTokenResponse) {
      replies.push_back(ev.GetInt("at", 0));
    }
  }
  std::vector<double> late;
  std::vector<bool> acquire_sent;  // per send, in order
  size_t replied = 0, next_reply = 0;
  int64_t balance = 0;
  for (const Request& req : script) {
    while (next_reply < replies.size() && replies[next_reply] <= req.at) {
      if (replied < acquire_sent.size() && acquire_sent[replied]) ++balance;
      ++replied;
      ++next_reply;
    }
    const bool release = req.type == Request::Type::kRelease;
    if (release && balance < req.amount) continue;  // skipped, as the client
    if (late.size() >= sends.size()) return false;
    late.push_back(static_cast<double>(sends[late.size()] - req.at) / 1000.0);
    if (release) balance -= req.amount;
    acquire_sent.push_back(req.type == Request::Type::kAcquire);
  }
  if (late.size() != sends.size()) return false;
  late_ms->insert(late_ms->end(), late.begin(), late.end());
  return true;
}

/// Posts closures to an idle node at random phases of its loop and reads
/// the cluster clock inside each: how late a loop wakes for new work.
std::vector<double> WakeLatenessUs(uint64_t seed, int samples, Span* post) {
  samya::rt::RealCluster cluster;
  const samya::rt::NodeId id =
      cluster.AddNode<IdleNode>(samya::rt::Region::kUsWest1)->id();
  cluster.Start();
  std::vector<int64_t> late(static_cast<size_t>(samples), 0);
  samya::Rng rng(seed);
  for (int i = 0; i < samples; ++i) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(rng.UniformInt(100, 2000)));
    const int64_t posted = cluster.NowUs();
    const auto start = Clock::now();
    cluster.Post(id, [&late, &cluster, i, posted] {
      late[static_cast<size_t>(i)] = cluster.NowUs() - posted;
    });
    post->Add(NanosSince(start));
  }
  cluster.Barrier();
  cluster.Shutdown();
  return std::vector<double>(late.begin(), late.end());
}

/// EncodeFrame + DecodeFrame over the datagrams of a real run (type,
/// payload bytes), repeated until at least `min_frames` frames; ns per
/// frame.
double FrameCodecNs(const std::vector<std::pair<uint32_t, size_t>>& frames,
                    size_t min_frames, Report* report) {
  if (frames.empty()) return 0.0;
  size_t largest = 0;
  for (const auto& f : frames) largest = std::max(largest, f.second);
  const std::vector<uint8_t> payload(largest, 0x5a);
  std::vector<uint8_t> buf;
  size_t done = 0;
  bool ok = true;
  const auto start = Clock::now();
  while (done < min_frames) {
    for (const auto& [type, bytes] : frames) {
      samya::rt::EncodeFrame(1, 2, type, payload.data(), bytes, &buf);
      samya::rt::WireFrame frame;
      ok = ok &&
           samya::rt::DecodeFrame(buf.data(), buf.size(), &frame) ==
               samya::rt::WireError::kOk &&
           frame.payload_len == bytes;
    }
    done += frames.size();
  }
  const double ns = static_cast<double>(NanosSince(start)) / done;
  if (!ok) report->Fail("real backend: a frame did not survive the codec");
  return ns;
}

}  // namespace

void MeasureRealBackend(uint64_t seed, Report* report) {
  RealHarnessOptions opts;  // 5 sites, M_e = 5000, 40 requests/region, 25 ms
  opts.seed = seed;
  // RunReal polls until drained after this; 2 s would idle most of a round.
  opts.drain = samya::Millis(100);
  RealHarness harness(opts);
  const BackendRun sim = harness.RunSim();
  // Experiment's aggregate leaves skipped_releases at 0: every scripted
  // request the simulator's clients did not send, they skipped.
  uint64_t scripted = 0;
  for (const auto& script : harness.scripts()) scripted += script.size();
  const uint64_t sim_scripted =
      sim.aggregate.TotalCommitted() + (scripted - sim.aggregate.sent);

  samya::Histogram latency;
  std::vector<double> late_ms;
  std::vector<std::pair<uint32_t, size_t>> frames;
  uint64_t frames_rejected = 0;
  int unmatched = 0;
  for (int round = 0; round < kRounds; ++round) {
    const BackendRun real = harness.RunReal();
    const Ledger ledger = LedgerOf(real, opts.max_tokens);
    report->CountOps(ledger.sent, ledger.dropped);
    report->Fail(CheckLedger(ledger, SmallestBaseHopUs()));
    report->Fail(CheckSimVsReal(
        sim_scripted, sim.messages_per_request,
        ledger.committed() + real.aggregate.skipped_releases,
        real.messages_per_request));
    latency.Merge(real.aggregate.latency);
    frames_rejected += real.frames_rejected;

    // RealHarness's node-id layout: sites, then one app manager and then
    // one client per region.
    const JsonValue& events = *real.flight.Find("events");
    for (int r = 0; r < 5; ++r) {
      if (!GeneratorLateness(harness.scripts()[static_cast<size_t>(r)],
                             events, opts.num_sites + 5 + r, &late_ms)) {
        ++unmatched;
      }
    }
    if (round == 0) {
      for (const JsonValue& ev : events.as_array()) {
        if (ev.GetString("kind", "") == "msg_send") {
          frames.emplace_back(static_cast<uint32_t>(ev.GetInt("a", 0)),
                              static_cast<size_t>(ev.GetInt("c", 0)));
        }
      }
    }
  }
  if (unmatched > 0) {
    std::fprintf(stderr,
                 "perfbench: %d client runs left out of rt.generator_late_ms "
                 "(sends and script did not match)\n",
                 unmatched);
  }

  Span post;
  const std::vector<double> wake_us = WakeLatenessUs(seed, 400, &post);
  report->Add("rt.real_p50_ms", latency.P50() / 1000.0, "ms");
  report->Add("rt.real_p99_ms", latency.P99() / 1000.0, "ms");
  report->Add("rt.sim_p50_ms", sim.aggregate.latency.P50() / 1000.0, "ms");
  report->Add("rt.wake_lateness_us", Median(wake_us), "us");
  report->Add("rt.post_ns", post.NsPerCall(), "ns");
  report->Add("rt.generator_late_ms", Quantile(late_ms, 0.99), "ms");
  report->Add("rt.frame_codec_ns", FrameCodecNs(frames, 200000, report), "ns");
  report->Add("rt.frames_rejected", frames_rejected, "count");
}

}  // namespace perfbench
