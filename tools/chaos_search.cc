// chaos_search — randomized fault-schedule search with invariant auditing.
//
// Sweeps seeds x systems x fault intensities: each configuration derives a
// seed-deterministic nemesis fault schedule (crash churn, rolling
// partitions, one-way link cuts, loss spikes, delay storms, duplication),
// runs the system under it with the continuous InvariantAuditor armed, and
// reports every invariant violation. On a violation the offending schedule
// is delta-debugged (ddmin) down to a minimal reproducer and written as a
// JSON chaos case, ready to commit to tests/integration/chaos_corpus/.
//
// Usage:
//   chaos_search [--seeds N] [--seed-base N] [--systems a,b]
//                [--intensities x,y,z] [--duration-s N] [--sites N]
//                [--max-tokens N] [--corpus DIR] [--no-shrink]
//                [--no-quiescence-guard] [--threads N] [--list]
//
// Exit status: 0 when every configuration passed, 1 on any violation.
//
// Examples:
//   chaos_search                         # 25 seeds x 2 systems x 4 intensities
//   chaos_search --seeds 4 --intensities 2 --duration-s 30
//   chaos_search --no-quiescence-guard --seeds 1 --corpus /tmp/corpus

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "harness/chaos.h"
#include "harness/parallel_runner.h"
#include "harness/postmortem.h"

using namespace samya;           // NOLINT — tool code
using namespace samya::harness;  // NOLINT

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: chaos_search [--seeds N] [--seed-base N] [--systems a,b]\n"
      "                    [--intensities x,y,z] [--duration-s N] [--sites N]\n"
      "                    [--max-tokens N] [--corpus DIR] [--no-shrink]\n"
      "                    [--no-quiescence-guard] [--emit-corpus]\n"
      "                    [--isolate W] [--disconnected]\n"
      "                    [--threads N] [--list]\n"
      "systems: samya_majority samya_any samya_majority_no_predict\n"
      "         samya_any_no_predict bounded_counter\n"
      "--isolate W adds W site-isolation waves (x intensity) per schedule;\n"
      "--disconnected arms Samya's degraded mode so isolated sites keep\n"
      "serving from their local pool behind a durable op-log.\n");
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

std::string IntensityTag(double intensity) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", intensity);
  std::string tag = buf;
  for (char& c : tag) {
    if (c == '.') c = 'p';
  }
  return tag;
}

std::string CaseBasename(const std::string& corpus_dir, const ChaosCase& c) {
  std::string base = corpus_dir + "/chaos_" + SystemIdName(c.system) +
                     "_seed" + std::to_string(c.seed) + "_i" +
                     IntensityTag(c.intensity);
  if (c.isolate != 0.0) base += "_iso" + IntensityTag(c.isolate);
  if (c.disconnected_mode) base += "_dm";
  return base;
}

bool WriteCase(const std::string& corpus_dir, const ChaosCase& c) {
  const std::string path = CaseBasename(corpus_dir, c) + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << JsonDump(c.ToJson(), /*indent=*/2);
  std::printf("  wrote %s\n", path.c_str());
  return true;
}

/// Re-runs a (minimized) violating case with metrics and the flight
/// recorder armed and ships a self-contained post-mortem bundle next to the
/// corpus file. Both are pure observers, so the re-run replays the
/// identical event sequence that violated: the bundle's flight history
/// belongs to the exact reproducer committed to the corpus, and
/// `samya_postmortem export` turns it into a Perfetto trace.
void WriteViolationPostmortem(const std::string& corpus_dir,
                              const ChaosCase& c, const AuditOptions& audit) {
  ExperimentOptions opts = MakeChaosOptions(c, audit);
  opts.obs.metrics = true;
  Experiment experiment(opts);
  experiment.Setup();
  const ExperimentResult r = experiment.Run();
  const PostmortemBundle bundle =
      MakePostmortem("chaos_search", c.violation_check, c.ToJson(), r);
  const std::string bundle_path =
      CaseBasename(corpus_dir, c) + "_postmortem.json";
  const Status bst = WritePostmortem(bundle, bundle_path);
  if (!bst.ok()) {
    std::fprintf(stderr, "cannot write bundle: %s\n", bst.message().c_str());
    return;
  }
  std::printf("  wrote %s (%llu flight events, %zu violation(s))\n",
              bundle_path.c_str(),
              static_cast<unsigned long long>(
                  bundle.flight.is_object() ? bundle.flight.GetInt("total", 0)
                                            : 0),
              bundle.violations.size());
}

}  // namespace

int main(int argc, char** argv) {
  int seeds = 25;
  uint64_t seed_base = 1;
  std::vector<SystemKind> systems = {SystemKind::kSamyaMajority,
                                     SystemKind::kSamyaAny};
  std::vector<double> intensities = {0.5, 1.0, 2.0, 3.0};
  int duration_s = 50;
  int sites = 5;
  int64_t max_tokens = 5000;
  std::string corpus_dir;
  bool shrink = true;
  bool emit_corpus = false;
  bool quiescence_guard = true;
  double isolate = 0.0;
  bool disconnected = false;
  int threads = 0;
  bool list_only = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      seeds = std::atoi(next());
    } else if (arg == "--seed-base") {
      seed_base = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--systems") {
      systems.clear();
      for (const std::string& name : SplitCsv(next())) {
        SystemKind kind;
        if (!SystemKindFromId(name, &kind)) {
          std::fprintf(stderr, "unknown system: %s\n", name.c_str());
          return 2;
        }
        systems.push_back(kind);
      }
    } else if (arg == "--intensities") {
      intensities.clear();
      for (const std::string& v : SplitCsv(next())) {
        intensities.push_back(std::atof(v.c_str()));
      }
    } else if (arg == "--duration-s") {
      duration_s = std::atoi(next());
    } else if (arg == "--sites") {
      sites = std::atoi(next());
    } else if (arg == "--max-tokens") {
      max_tokens = std::atoll(next());
    } else if (arg == "--corpus") {
      corpus_dir = next();
    } else if (arg == "--no-shrink") {
      shrink = false;
    } else if (arg == "--emit-corpus") {
      emit_corpus = true;
    } else if (arg == "--no-quiescence-guard") {
      quiescence_guard = false;
    } else if (arg == "--isolate") {
      isolate = std::atof(next());
    } else if (arg == "--disconnected") {
      disconnected = true;
    } else if (arg == "--threads") {
      threads = std::atoi(next());
    } else if (arg == "--list") {
      list_only = true;
    } else {
      Usage();
      return arg == "--help" ? 0 : 2;
    }
  }

  AuditOptions audit;
  audit.enabled = true;
  audit.require_quiescence = quiescence_guard;

  std::vector<ChaosCase> cases;
  std::vector<ExperimentOptions> options;
  for (SystemKind system : systems) {
    for (double intensity : intensities) {
      for (int s = 0; s < seeds; ++s) {
        ChaosCase c =
            MakeNemesisCase(system, seed_base + static_cast<uint64_t>(s),
                            intensity, sites, isolate, disconnected);
        c.max_tokens = max_tokens;
        c.duration = Seconds(duration_s);
        c.quiescence_guard = quiescence_guard;
        cases.push_back(c);
        options.push_back(MakeChaosOptions(c, audit));
      }
    }
  }

  std::printf("chaos_search: %zu configs (%zu systems x %zu intensities x %d "
              "seeds), duration %ds%s\n",
              cases.size(), systems.size(), intensities.size(), seeds,
              duration_s, quiescence_guard ? "" : " [quiescence guard OFF]");
  if (list_only) {
    for (const ChaosCase& c : cases) {
      std::printf("  %s seed=%llu intensity=%g schedule_ops=%zu\n",
                  SystemIdName(c.system),
                  static_cast<unsigned long long>(c.seed), c.intensity,
                  c.schedule.size());
    }
    return 0;
  }

  const std::vector<ExperimentResult> results = RunAll(options, threads);

  int violating = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    ChaosCase& c = cases[i];
    if (r.violations.empty()) {
      if (emit_corpus && !corpus_dir.empty()) {
        c.note = "regression guard: swept clean by chaos_search";
        WriteCase(corpus_dir, c);
      }
      continue;
    }
    ++violating;
    std::printf("\nVIOLATION %s seed=%llu intensity=%g (%zu violation(s), "
                "%llu audit ticks)\n",
                SystemIdName(c.system),
                static_cast<unsigned long long>(c.seed), c.intensity,
                r.violations.size(),
                static_cast<unsigned long long>(r.audit_ticks));
    for (const AuditViolation& v : r.violations) {
      std::printf("  t=%s [%s] %s\n", FormatDuration(v.at).c_str(),
                  v.check.c_str(), v.detail.c_str());
    }
    if (r.dropped_violations > 0) {
      std::printf("  ... and %llu more violation(s) past the auditor cap\n",
                  static_cast<unsigned long long>(r.dropped_violations));
    }
    c.violation_check = r.violations.front().check;

    ChaosCase minimized = c;
    if (shrink) {
      int runs_used = 0;
      minimized = ShrinkCase(c, audit, /*max_runs=*/300, &runs_used);
      std::printf("  shrunk %zu -> %zu ops in %d runs\n", c.schedule.size(),
                  minimized.schedule.size(), runs_used);
    }
    if (!corpus_dir.empty()) {
      minimized.note = "found by chaos_search; minimized by ddmin";
      WriteCase(corpus_dir, minimized);
      WriteViolationPostmortem(corpus_dir, minimized, audit);
    }
  }

  std::printf("\nchaos_search: %d/%zu configs violated invariants\n",
              violating, results.size());
  return violating == 0 ? 0 : 1;
}
