// samya_postmortem — render, diff, and export post-mortem bundles.
//
// A bundle ("samya-postmortem-v1", written by samya_search or this tool's
// capture command) is the self-contained record of one violating run: the
// reproducer case, the violation list, a metrics snapshot, and the
// flight-recorder tail (DESIGN.md §13).
//
// Subcommands:
//   capture --case FILE [--out FILE]
//     Re-runs a corpus case ("samya-case-v1") with the flight recorder
//     armed and dumps the bundle (default: "<case>_postmortem.json").
//     Works on clean cases too — a clean bundle is the baseline side of a
//     diff. A case file that fails to load exits 2.
//   report FILE [--last N] [--site S]
//     A summary, then the causally-ordered timeline of the flight history
//     (canonical (at, site, seq) order). The summary holds the derived
//     round/phase spans (count, p50/p99/max by name), the 5 slowest rounds
//     with their phases, per-wire-type sends/drops/bytes, Avantan messages
//     per leader round (the Table 3 view), and the disconnected-epoch and
//     reconcile tables. --last N keeps the N timeline events up to and
//     including the first violation marker (end of history when none);
//     --site S filters everything to one site's lane.
//   diff A B
//     First-divergence comparison of two bundles' protocol histories,
//     after trimming both to max(complete_from). Exit 0 when identical,
//     1 at the first divergent event (printed with its index).
//   export FILE [--out FILE]
//     Chrome trace-event JSON of the flight history and its derived spans
//     ("<FILE minus .json>_perfetto.json" by default), loadable in
//     ui.perfetto.dev.
//
// Exit status: 0 ok / histories identical, 1 diff divergence, 2 usage or
// I/O error.
//
// Examples:
//   samya_postmortem capture --case tests/integration/corpus/x.json
//   samya_postmortem report /tmp/corpus/chaos_..._postmortem.json --last 40
//   samya_postmortem diff serial_postmortem.json pdes_postmortem.json

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/token_api.h"
#include "harness/case.h"
#include "harness/postmortem.h"

using namespace samya;           // NOLINT — tool code
using namespace samya::harness;  // NOLINT

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: samya_postmortem capture --case FILE [--out FILE]\n"
      "       samya_postmortem report FILE [--last N] [--site S]\n"
      "       samya_postmortem diff A B\n"
      "       samya_postmortem export FILE [--out FILE]\n");
}

/// "<x>.json" -> "<x><suffix>.json"; appends when FILE has no .json tail.
std::string DerivedPath(const std::string& path, const std::string& suffix) {
  std::string base = path;
  if (base.size() > 5 && base.compare(base.size() - 5, 5, ".json") == 0) {
    base.erase(base.size() - 5);
  }
  return base + suffix + ".json";
}

int LoadOrDie(const std::string& path, PostmortemBundle* out) {
  auto loaded = LoadPostmortem(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 loaded.status().message().c_str());
    return 2;
  }
  *out = std::move(loaded.value());
  return 0;
}

int RunCapture(const std::string& case_path, std::string out_path) {
  auto c = LoadCase(case_path);
  if (!c.ok()) {
    std::fprintf(stderr, "%s: %s\n", case_path.c_str(),
                 c.status().message().c_str());
    return 2;
  }
  const CaseResult r = RunCase(c.value());
  const PostmortemBundle bundle =
      MakePostmortem("samya_postmortem", c.value().ToJson(), r);
  std::printf("capture: %s\n", r.violated() ? r.failed_check.c_str() : "clean");
  if (out_path.empty()) out_path = DerivedPath(case_path, "_postmortem");
  const Status st = WritePostmortem(bundle, out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t idx = static_cast<size_t>(rank + 0.5);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

void PrintSpanStats(const std::vector<FlightSpan>& spans) {
  std::map<std::string, std::vector<int64_t>> by_name;
  for (const FlightSpan& s : spans) by_name[s.name].push_back(s.end - s.start);
  std::printf("\nspans (sim-time us):\n");
  std::printf("  %-14s %8s %10s %10s %10s\n", "name", "count", "p50", "p99",
              "max");
  for (auto& [name, durs] : by_name) {
    std::sort(durs.begin(), durs.end());
    std::printf("  %-14s %8zu %10lld %10lld %10lld\n", name.c_str(),
                durs.size(), static_cast<long long>(Percentile(durs, 50)),
                static_cast<long long>(Percentile(durs, 99)),
                static_cast<long long>(durs.back()));
  }
}

void PrintSlowestRounds(const std::vector<FlightSpan>& spans) {
  std::vector<size_t> rounds;  // indices; each round's phases follow it
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].is_round()) rounds.push_back(i);
  }
  const auto dur = [&spans](size_t i) { return spans[i].end - spans[i].start; };
  std::stable_sort(rounds.begin(), rounds.end(),
                   [&dur](size_t a, size_t b) { return dur(a) > dur(b); });
  const size_t n = std::min<size_t>(5, rounds.size());
  std::printf("\nslowest %zu round(s):\n", n);
  for (size_t r = 0; r < n; ++r) {
    const FlightSpan& round = spans[rounds[r]];
    std::printf("  %-12s site=%d instance=%lld start=%lldus dur=%lldus%s\n",
                round.name, round.site, static_cast<long long>(round.instance),
                static_cast<long long>(round.start),
                static_cast<long long>(dur(rounds[r])),
                round.aborted ? " aborted" : "");
    for (size_t k = rounds[r] + 1; k < spans.size() && !spans[k].is_round();
         ++k) {
      std::printf("    +%-9lld %-10s %lldus\n",
                  static_cast<long long>(spans[k].start - round.start),
                  spans[k].name, static_cast<long long>(dur(k)));
    }
  }
}

/// Per wire type: send attempts, duplicates, drops by fate, and bytes; then
/// the Table 3 view, Avantan (200-229) sends per leader round.
void PrintMessageStats(const std::vector<obs::FlightEvent>& evs,
                       const std::vector<FlightSpan>& spans) {
  struct Row {
    uint64_t sends = 0, dup = 0, drop_send = 0, crashed = 0, partition = 0,
             link = 0, loss = 0;
    int64_t bytes = 0;
  };
  std::map<int64_t, Row> by_type;
  for (const obs::FlightEvent& ev : evs) {
    if (ev.kind == obs::FlightKind::kMsgSend) {
      Row& row = by_type[ev.a];
      if (ev.code == obs::kSendDuplicated) {
        ++row.dup;
        continue;
      }
      ++row.sends;
      row.bytes += ev.c;
      if (ev.code == obs::kSendDroppedAtSend) ++row.drop_send;
    } else if (ev.kind == obs::FlightKind::kMsgDeliver) {
      Row& row = by_type[ev.a];
      switch (ev.code) {
        case obs::kDeliverDroppedCrashed: ++row.crashed; break;
        case obs::kDeliverDroppedPartition: ++row.partition; break;
        case obs::kDeliverDroppedLink: ++row.link; break;
        case obs::kDeliverDroppedLoss: ++row.loss; break;
        default: break;
      }
    }
  }
  if (by_type.empty()) return;
  std::printf("\nmessages by wire type (drops by fate):\n");
  std::printf("  %-24s %9s %6s %9s %8s %9s %6s %6s %11s\n", "type", "sends",
              "dup", "drop@send", "crashed", "partition", "link", "loss",
              "bytes");
  for (const auto& [type, row] : by_type) {
    std::printf("  %-24s %9llu %6llu %9llu %8llu %9llu %6llu %6llu %11lld\n",
                MessageTypeName(static_cast<uint32_t>(type)),
                static_cast<unsigned long long>(row.sends),
                static_cast<unsigned long long>(row.dup),
                static_cast<unsigned long long>(row.drop_send),
                static_cast<unsigned long long>(row.crashed),
                static_cast<unsigned long long>(row.partition),
                static_cast<unsigned long long>(row.link),
                static_cast<unsigned long long>(row.loss),
                static_cast<long long>(row.bytes));
  }
  uint64_t leader_rounds = 0;
  for (const FlightSpan& s : spans) {
    if (std::strcmp(s.name, "round.leader") == 0) ++leader_rounds;
  }
  if (leader_rounds == 0) return;
  std::printf("\nmessages per leader round (%llu rounds):\n",
              static_cast<unsigned long long>(leader_rounds));
  for (const auto& [type, row] : by_type) {
    if (type < 200 || type >= 230) continue;
    std::printf("  %-24s %8.2f\n",
                MessageTypeName(static_cast<uint32_t>(type)),
                static_cast<double>(row.sends) /
                    static_cast<double>(leader_rounds));
  }
}

/// Degraded-mode forensics: one row per disconnected epoch (enter ->
/// reconcile exit) and per reconcile handshake. `served`/`appends` are the
/// site's cumulative counters at exit (the events carry running totals).
void PrintDegradedSpans(const std::vector<obs::FlightEvent>& evs) {
  struct EpochSpan {
    int32_t site = -1;
    int64_t epoch = 0;
    SimTime enter = -1;
    SimTime exit = -1;
    int64_t served_total = 0;
    int64_t appends_total = 0;
  };
  struct ReconSpan {
    SimTime offered = -1;
    SimTime first_ack = -1;
    int64_t ops_logged = 0;
    int64_t net_delta = 0;
    int acks = 0;
  };
  std::vector<EpochSpan> epochs;
  std::map<std::pair<int32_t, int64_t>, size_t> open;  // (site, epoch)
  std::map<std::pair<int32_t, int64_t>, ReconSpan> recons;
  for (const obs::FlightEvent& ev : evs) {
    const std::pair<int32_t, int64_t> key{ev.site, ev.a};
    if (ev.kind == obs::FlightKind::kEpochEnter) {
      open[key] = epochs.size();
      epochs.push_back(EpochSpan{ev.site, ev.a, ev.at, -1, 0, 0});
    } else if (ev.kind == obs::FlightKind::kEpochExit) {
      auto it = open.find(key);
      if (it == open.end()) {
        // Exit without a retained enter (the ring wrapped past it).
        epochs.push_back(EpochSpan{ev.site, ev.a, -1, -1, 0, 0});
        it = open.emplace(key, epochs.size() - 1).first;
      }
      EpochSpan& s = epochs[it->second];
      s.exit = ev.at;
      s.served_total = ev.b;
      s.appends_total = ev.c;
      open.erase(it);
    } else if (ev.kind == obs::FlightKind::kReconcileOffer) {
      ReconSpan& r = recons[key];
      if (r.offered < 0) r.offered = ev.at;
      r.ops_logged = ev.b;
      r.net_delta = ev.c;
    } else if (ev.kind == obs::FlightKind::kReconcileAck) {
      ReconSpan& r = recons[key];
      if (r.first_ack < 0) r.first_ack = ev.at;
      ++r.acks;
    }
  }
  if (!epochs.empty()) {
    std::printf("\ndisconnected epochs:\n");
    std::printf("  %-5s %-6s %12s %12s %12s %10s %8s\n", "site", "epoch",
                "enter", "exit", "duration", "served", "appends");
    for (const EpochSpan& s : epochs) {
      char dur[24];
      if (s.enter >= 0 && s.exit >= 0) {
        std::snprintf(dur, sizeof(dur), "%lldus",
                      static_cast<long long>(s.exit - s.enter));
      } else {
        std::snprintf(dur, sizeof(dur), "%s",
                      s.exit < 0 ? "unreconciled" : "?");
      }
      std::printf("  %-5d %-6lld %12lld %12lld %12s %10lld %8lld\n", s.site,
                  static_cast<long long>(s.epoch),
                  static_cast<long long>(s.enter),
                  static_cast<long long>(s.exit), dur,
                  static_cast<long long>(s.served_total),
                  static_cast<long long>(s.appends_total));
    }
  }
  if (!recons.empty()) {
    std::printf("\nreconcile handshakes:\n");
    std::printf("  %-5s %-6s %12s %12s %8s %10s %6s\n", "site", "epoch",
                "offered", "first ack", "ops", "net delta", "acks");
    for (const auto& [key, r] : recons) {
      std::printf("  %-5d %-6lld %12lld %12lld %8lld %10lld %6d\n", key.first,
                  static_cast<long long>(key.second),
                  static_cast<long long>(r.offered),
                  static_cast<long long>(r.first_ack),
                  static_cast<long long>(r.ops_logged),
                  static_cast<long long>(r.net_delta), r.acks);
    }
  }
}

void PrintSummary(const std::vector<obs::FlightEvent>& evs) {
  const std::vector<FlightSpan> spans = DeriveFlightSpans(evs);
  if (!spans.empty()) {
    PrintSpanStats(spans);
    PrintSlowestRounds(spans);
  }
  PrintMessageStats(evs, spans);
  PrintDegradedSpans(evs);
  std::printf("\n");
}

int RunReport(const std::string& path, int64_t last, int32_t site_filter) {
  PostmortemBundle b;
  if (int rc = LoadOrDie(path, &b); rc != 0) return rc;

  std::printf("bundle: %s\n", path.c_str());
  std::printf("  source: %s\n", b.source.c_str());
  std::printf("  failed check: %s\n",
              b.failed_check.empty() ? "(none — clean run)"
                                     : b.failed_check.c_str());
  std::printf("  violations: %zu (+%llu dropped past the auditor cap)\n",
              b.violations.size(),
              static_cast<unsigned long long>(b.dropped_violations));
  for (const AuditViolation& v : b.violations) {
    std::printf("    t=%s [%s] %s\n", FormatDuration(v.at).c_str(),
                v.check.c_str(), v.detail.c_str());
  }

  auto events = FlightEventsOf(b);
  if (!events.ok()) {
    std::fprintf(stderr, "bad flight section: %s\n",
                 events.status().message().c_str());
    return 2;
  }
  if (events.value().empty()) {
    std::printf("  (no flight history)\n");
    return 0;
  }
  std::vector<obs::FlightEvent> evs = std::move(events.value());
  if (site_filter >= 0) {
    size_t keep = 0;
    for (const obs::FlightEvent& ev : evs) {
      if (ev.site == site_filter) evs[keep++] = ev;
    }
    evs.resize(keep);
  }
  // The tail that matters: everything up to and including the first
  // violation marker (end of history when the bundle carries none).
  size_t end = evs.size();
  for (size_t i = 0; i < evs.size(); ++i) {
    if (evs[i].kind == obs::FlightKind::kViolation) {
      end = i + 1;
      break;
    }
  }
  size_t begin = 0;
  if (last > 0 && static_cast<size_t>(last) < end) {
    begin = end - static_cast<size_t>(last);
  }
  const SimTime complete_from = FlightCompleteFrom(b);
  std::printf("  flight: %zu event(s) retained, complete from t=%s\n",
              evs.size(), FormatDuration(complete_from).c_str());
  PrintSummary(evs);
  if (begin > 0) std::printf("  ... %zu earlier event(s) elided\n", begin);
  for (size_t i = begin; i < end; ++i) {
    const bool marker = evs[i].kind == obs::FlightKind::kViolation;
    std::printf("  %s %s\n", marker ? ">>" : "  ",
                FormatFlightEvent(evs[i]).c_str());
  }
  if (end < evs.size()) {
    std::printf("  ... %zu event(s) after the first violation elided\n",
                evs.size() - end);
  }
  return 0;
}

int RunDiff(const std::string& path_a, const std::string& path_b) {
  PostmortemBundle a, b;
  if (int rc = LoadOrDie(path_a, &a); rc != 0) return rc;
  if (int rc = LoadOrDie(path_b, &b); rc != 0) return rc;
  const PostmortemDiff d = DiffPostmortems(a, b);
  if (!d.comparable) {
    std::fprintf(stderr,
                 "bundles are not comparable (a flight section is missing "
                 "or corrupt)\n");
    return 2;
  }
  std::printf("diff: comparing from t=%s (%llu event(s) match)\n",
              FormatDuration(d.compare_from).c_str(),
              static_cast<unsigned long long>(d.compared));
  if (!d.diverged) {
    std::printf("histories identical — no divergence\n");
    return 0;
  }
  std::printf("FIRST DIVERGENCE at canonical index %llu:\n",
              static_cast<unsigned long long>(d.divergence_index));
  std::printf("  a: %s\n", d.event_a.c_str());
  std::printf("  b: %s\n", d.event_b.c_str());
  return 1;
}

int RunExport(const std::string& path, std::string out_path) {
  PostmortemBundle b;
  if (int rc = LoadOrDie(path, &b); rc != 0) return rc;
  if (out_path.empty()) out_path = DerivedPath(path, "_perfetto");
  const Status st = ExportFlightChromeTrace(b, out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string cmd = argv[1];
  std::vector<std::string> positional;
  std::string case_path;
  std::string out_path;
  int64_t last = 0;
  int32_t site = -1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--case") {
      case_path = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--last") {
      last = std::atoll(next());
    } else if (arg == "--site") {
      site = std::atoi(next());
    } else if (arg == "--help") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      Usage();
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  if (cmd == "capture") {
    if (case_path.empty() && positional.size() == 1) {
      case_path = positional[0];
    }
    if (case_path.empty()) {
      Usage();
      return 2;
    }
    return RunCapture(case_path, out_path);
  }
  if (cmd == "report" && positional.size() == 1) {
    return RunReport(positional[0], last, site);
  }
  if (cmd == "diff" && positional.size() == 2) {
    return RunDiff(positional[0], positional[1]);
  }
  if (cmd == "export" && positional.size() == 1) {
    return RunExport(positional[0], out_path);
  }
  Usage();
  return 2;
}
