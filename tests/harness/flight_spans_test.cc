// Round and phase spans derived from the flight recorder (DESIGN.md §8):
// hand-built histories pin the derivation rules, and a short Samya run pins
// that the derived rounds measure what `avantan.instance_us` measures and
// that the Perfetto export pairs every begin with an end.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "harness/experiment.h"
#include "harness/postmortem.h"
#include "obs/flight_recorder.h"

namespace samya::harness {
namespace {

/// Builds a canonical-order history: events are stamped with per-site seqs
/// in the order given, which must already be (at, site) sorted.
class History {
 public:
  History& Phase(SimTime at, int32_t site, uint16_t code, int64_t instance) {
    obs::FlightEvent ev;
    ev.at = at;
    ev.site = site;
    ev.seq = seq_[site]++;
    ev.kind = obs::FlightKind::kPhase;
    ev.code = code;
    ev.a = instance;
    events_.push_back(ev);
    return *this;
  }
  const std::vector<obs::FlightEvent>& events() const { return events_; }

 private:
  std::vector<obs::FlightEvent> events_;
  std::map<int32_t, uint32_t> seq_;
};

FlightSpan Span(const char* name, int32_t site, int64_t instance,
                SimTime start, SimTime end, bool aborted = false) {
  FlightSpan s;
  s.name = name;
  s.category = std::strncmp(name, "round.", 6) == 0 ? "round" : "phase";
  s.site = site;
  s.instance = instance;
  s.start = start;
  s.end = end;
  s.aborted = aborted;
  return s;
}

TEST(FlightSpansTest, MajorityRoundWithCohort) {
  History h;
  h.Phase(100, 0, obs::kPhaseEngage, 3)
      .Phase(100, 0, obs::kPhaseElectionStart, 3)
      .Phase(200, 1, obs::kPhaseEngage, 3)
      .Phase(300, 0, obs::kPhaseAcceptStart, 3)
      .Phase(500, 0, obs::kPhaseDecided, 3)
      .Phase(600, 0, obs::kPhaseFinish, 3)
      .Phase(700, 1, obs::kPhaseFinish, 3);
  const std::vector<FlightSpan> want = {
      Span("round.leader", 0, 3, 100, 600), Span("election", 0, 3, 100, 300),
      Span("accept", 0, 3, 300, 500),       Span("decided", 0, 3, 500, 600),
      Span("round.cohort", 1, 3, 200, 700)};
  EXPECT_TRUE(DeriveFlightSpans(h.events()) == want);
}

TEST(FlightSpansTest, AbortEndsRoundAndOpenPhase) {
  History h;
  h.Phase(10, 2, obs::kPhaseEngage, 8)
      .Phase(10, 2, obs::kPhaseElectionStart, 8)
      .Phase(90, 2, obs::kPhaseAbort, 8);
  const std::vector<FlightSpan> want = {
      Span("round.leader", 2, 8, 10, 90, /*aborted=*/true),
      Span("election", 2, 8, 10, 90)};
  EXPECT_TRUE(DeriveFlightSpans(h.events()) == want);
}

TEST(FlightSpansTest, RecoveryReElectionStaysInOneRound) {
  // A cohort times out and re-runs the election for the same instance: one
  // round, now a leader's, with the recovery phase cut between election and
  // accept.
  History h;
  h.Phase(0, 4, obs::kPhaseEngage, 5)
      .Phase(50, 4, obs::kPhaseElectionStart, 5)
      .Phase(1000, 4, obs::kPhaseRecoveryStart, 5)
      .Phase(1200, 4, obs::kPhaseAcceptStart, 5)
      .Phase(1400, 4, obs::kPhaseDecided, 5)
      .Phase(1500, 4, obs::kPhaseFinish, 5);
  const std::vector<FlightSpan> want = {
      Span("round.leader", 4, 5, 0, 1500), Span("election", 4, 5, 50, 1000),
      Span("recovery", 4, 5, 1000, 1200),  Span("accept", 4, 5, 1200, 1400),
      Span("decided", 4, 5, 1400, 1500)};
  EXPECT_TRUE(DeriveFlightSpans(h.events()) == want);
}

TEST(FlightSpansTest, CohortRoundIgnoresApply) {
  // Applying another instance's decision while engaged neither ends the
  // round nor cuts a phase; an apply without an engage makes no span.
  History h;
  h.Phase(100, 2, obs::kPhaseEngage, 4)
      .Phase(150, 2, obs::kPhaseApply, 3)
      .Phase(300, 3, obs::kPhaseApply, 4)
      .Phase(400, 2, obs::kPhaseFinish, 4);
  const std::vector<FlightSpan> want = {Span("round.cohort", 2, 4, 100, 400)};
  EXPECT_TRUE(DeriveFlightSpans(h.events()) == want);
}

TEST(FlightSpansTest, EvictedEngageIsSkippedNotInvented) {
  // A wrapped ring lost instance 1's engage: its later phases and finish
  // must not produce a span. Instance 2 is whole, and instance 3 is still
  // open when the history ends.
  History h;
  h.Phase(10, 0, obs::kPhaseAcceptStart, 1)
      .Phase(20, 0, obs::kPhaseDecided, 1)
      .Phase(30, 0, obs::kPhaseFinish, 1)
      .Phase(40, 0, obs::kPhaseEngage, 2)
      .Phase(40, 0, obs::kPhaseElectionStart, 2)
      .Phase(70, 0, obs::kPhaseFinish, 2)
      .Phase(80, 0, obs::kPhaseEngage, 3);
  const std::vector<FlightSpan> want = {Span("round.leader", 0, 2, 40, 70),
                                        Span("election", 0, 2, 40, 70)};
  EXPECT_TRUE(DeriveFlightSpans(h.events()) == want);
}

/// One short Samya run, scarce enough to redistribute, with the flight
/// recorder and metrics armed; shared by the run tests below.
const ExperimentResult& ShortRun() {
  static const ExperimentResult result = [] {
    ExperimentOptions opts;
    opts.system = SystemKind::kSamyaMajority;
    opts.duration = Seconds(20);
    opts.max_tokens = 300;
    opts.seed = 11;
    opts.obs.flight_recorder = true;
    opts.obs.metrics = true;
    Experiment experiment(opts);
    experiment.Setup();
    return experiment.Run();
  }();
  return result;
}

TEST(FlightSpansRunTest, FinishedRoundsMatchInstanceHistogram) {
  const obs::FlightRecorder& flight = *ShortRun().obs->flight();
  ASSERT_EQ(flight.dropped(), 0u) << "ring wrapped; rounds would be partial";
  const std::vector<FlightSpan> spans = DeriveFlightSpans(flight.Canonical());
  obs::MetricsRegistry& metrics = *ShortRun().obs->metrics();
  uint64_t total = 0;
  for (int32_t site = 0; site < 5; ++site) {
    std::vector<int64_t> durs;
    for (const FlightSpan& s : spans) {
      if (s.is_round() && !s.aborted && s.site == site) {
        durs.push_back(s.end - s.start);
      }
    }
    obs::MetricLabels labels;
    labels.site = site;
    labels.protocol = "majority";
    const Histogram& hist =
        *metrics.GetHistogram("avantan.instance_us", labels);
    ASSERT_EQ(durs.size(), hist.count()) << "site " << site;
    total += durs.size();
    if (durs.empty()) continue;
    EXPECT_EQ(*std::min_element(durs.begin(), durs.end()), hist.min())
        << "site " << site;
    EXPECT_EQ(*std::max_element(durs.begin(), durs.end()), hist.max())
        << "site " << site;
  }
  EXPECT_GT(total, 0u) << "the run must redistribute";
}

TEST(FlightSpansRunTest, PerfettoExportBalancesBeginsAndEnds) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("samya_flight_spans_" + std::to_string(::getpid()) + ".json");
  const PostmortemBundle bundle =
      MakePostmortem("flight_spans_test", JsonValue(), CaseResult(ShortRun()));
  ASSERT_TRUE(ExportFlightChromeTrace(bundle, path.string()).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::filesystem::remove(path);
  auto doc = JsonParse(buf.str());
  ASSERT_TRUE(doc.ok());
  const JsonValue* events = doc.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Per (pid, id): depth never goes negative and returns to zero.
  std::map<std::pair<int64_t, int64_t>, int> depth;
  uint64_t begins = 0;
  for (const JsonValue& ev : events->as_array()) {
    const std::string ph = ev.GetString("ph", "");
    if (ph != "b" && ph != "e") continue;
    int& d = depth[{ev.GetInt("pid", -1), ev.GetInt("id", -1)}];
    if (ph == "b") {
      ++d;
      ++begins;
    } else {
      --d;
      ASSERT_GE(d, 0) << "end before begin";
    }
  }
  EXPECT_GT(begins, 0u);
  for (const auto& [key, d] : depth) {
    EXPECT_EQ(d, 0) << "pid " << key.first << " id " << key.second;
  }
}

}  // namespace
}  // namespace samya::harness
