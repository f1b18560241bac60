// samya_search — searches fault schedules and delivery orders for invariant
// violations, minimizes what it finds, and replays corpus cases.
//
// Every run is a case (harness/case.h) judged by one verdict: the invariant
// auditor, plus the history checker (WGL linearizability, or bounded safety
// for escrow-style baselines) when the case plays fixed scripts.
//
// Modes:
//   faults (default): seeds x systems x intensities. Each config derives a
//     seed-deterministic nemesis fault schedule (crash churn, rolling
//     partitions, one-way link cuts, loss spikes, delay storms,
//     duplication, optional site-isolation waves) and runs the seeded
//     trace workload under it.
//   schedules: seeds x systems x schedulers (random walk, PCT) over the
//     small contention scenario (3 sites, scripted acquires/releases/reads
//     per region); the scheduler reorders message deliveries and the run's
//     decisions become the case's choices.
//   dfs: bounded exhaustive search of the contention scenario — every
//     delivery order within --max-depth deviations from FIFO is executed
//     (state-hash pruned), reporting explored-state counts and whether the
//     space was exhausted.
//   replay: re-runs a case file and verifies its recorded verdict (clean,
//     or the named violation) reproduces.
//
// A violating config is ddmin-minimized (fault ops, then choices) and, with
// --corpus, written as a case ready to commit to tests/integration/corpus/
// with its post-mortem bundle next to it.
//
// Usage:
//   samya_search [--mode faults|schedules|dfs|replay] [--seeds N]
//                [--seed-base N] [--systems a,b] [--intensities x,y]
//                [--isolate W] [--disconnected] [--no-quiescence-guard]
//                [--schedulers random,pct] [--pct-depth N] [--window-ms N]
//                [--sites N] [--max-tokens N] [--duration-s N]
//                [--mutation NAME] [--corpus DIR] [--emit-corpus]
//                [--no-shrink] [--threads N] [--max-depth N] [--max-runs N]
//                [--case FILE] [--list]
//
// Exit status: 0 when every configuration matched expectations (clean, or
// under --mutation at least one violation), 1 otherwise, 2 on usage error.
//
// Examples:
//   samya_search --seeds 3 --intensities 1,2 --duration-s 30
//   samya_search --mode schedules --seeds 8
//   samya_search --mode dfs --max-tokens 7 --max-depth 6
//   samya_search --mode replay --case tests/integration/corpus/x.json
//   samya_search --mode schedules --mutation alloc_remainder --seeds 1

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness/case.h"
#include "harness/parallel_runner.h"
#include "harness/postmortem.h"

using namespace samya;           // NOLINT — tool code
using namespace samya::harness;  // NOLINT

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: samya_search [--mode faults|schedules|dfs|replay] [--seeds N]\n"
      "                    [--seed-base N] [--systems a,b]\n"
      "                    [--intensities x,y] [--isolate W] [--disconnected]\n"
      "                    [--no-quiescence-guard] [--schedulers random,pct]\n"
      "                    [--pct-depth N] [--window-ms N] [--sites N]\n"
      "                    [--max-tokens N] [--duration-s N]\n"
      "                    [--mutation NAME] [--corpus DIR] [--emit-corpus]\n"
      "                    [--no-shrink] [--threads N] [--max-depth N]\n"
      "                    [--max-runs N] [--case FILE] [--list]\n"
      "systems: samya_majority samya_any samya_majority_no_predict\n"
      "         samya_any_no_predict bounded_counter multipaxsys\n"
      "         cockroach_like demarcation site_escrow ...\n"
      "schedulers: fifo random pct\n"
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

std::string NumberTag(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  std::string tag = buf;
  for (char& c : tag) {
    if (c == '.') c = 'p';
  }
  return tag;
}

/// One sweep configuration: the case, the scheduler that perturbs its
/// delivery order ("" = none, FIFO), and its names.
struct Config {
  Case c;
  std::string scheduler;
  std::string label;     ///< "intensity=2" or the scheduler name
  std::string basename;  ///< corpus file stem
};

std::unique_ptr<sim::ScheduleOracle> MakeOracle(const Config& cfg,
                                                int pct_depth) {
  if (cfg.scheduler == "random") {
    return std::make_unique<sim::RandomWalkOracle>(cfg.c.seed);
  }
  if (cfg.scheduler == "pct") {
    uint64_t ops = 0;
    for (const auto& s : cfg.c.scripts) ops += s.size();
    // Every client op fans out into a handful of request/response and
    // redistribution messages; 16x is a generous decision-count estimate
    // (PCT only needs the order of magnitude).
    return std::make_unique<sim::PctOracle>(cfg.c.seed, pct_depth,
                                            32 + 16 * ops);
  }
  if (cfg.scheduler == "fifo") return std::make_unique<sim::FifoOracle>();
  return nullptr;
}

void PrintRun(const Case& c, const std::string& label, const CaseResult& r) {
  std::printf("%-26s seed=%-5llu %-14s %s", SystemIdName(c.system),
              static_cast<unsigned long long>(c.seed), label.c_str(),
              r.violated() ? "VIOLATION" : "ok");
  if (r.violated()) std::printf(" [%s]", r.failed_check.c_str());
  if (!c.scripts.empty()) {
    std::printf(" (decisions %zu, ops %llu, checker: %llu states, %llu "
                "cached%s)",
                r.trace.size(),
                static_cast<unsigned long long>(r.ops_recorded),
                static_cast<unsigned long long>(r.check.states_explored),
                static_cast<unsigned long long>(r.check.cache_hits),
                r.check.complete ? "" : ", budget hit");
  }
  std::printf("\n");
  for (const AuditViolation& v : r.violations) {
    std::printf("    t=%s [%s] %s\n", FormatDuration(v.at).c_str(),
                v.check.c_str(), v.detail.c_str());
  }
  if (r.dropped_violations > 0) {
    std::printf("    ... and %llu more violation(s) past the auditor cap\n",
                static_cast<unsigned long long>(r.dropped_violations));
  }
  if (!r.check.ok) std::printf("    checker: %s\n", r.check.violation.c_str());
}

/// Prints where a finding went, or why it could not be written; the search
/// goes on either way.
void ReportWrite(const Status& st, const std::string& path) {
  if (st.ok()) {
    std::printf("  wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "%s\n", st.message().c_str());
  }
}

void WriteCaseFile(const std::string& base, const Case& c) {
  ReportWrite(WriteCase(c, base + ".json"), base + ".json");
}

/// `r` must be the run of `c` itself, so the bundle's flight history
/// belongs to the case written beside it.
void WriteBundle(const std::string& base, const Case& c, const CaseResult& r) {
  const std::string path = base + "_postmortem.json";
  ReportWrite(
      WritePostmortem(MakePostmortem("samya_search", c.ToJson(), r), path),
      path);
}

int RunReplay(const std::string& path) {
  auto loaded = LoadCase(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 loaded.status().message().c_str());
    return 2;
  }
  const Case& c = loaded.value();
  const CaseResult r = RunCase(c);
  PrintRun(c, "replay", r);
  if (r.violated()) {
    // "<case>.json" -> "<case>_postmortem.json", next to the case file.
    std::string base = path;
    if (base.size() > 5 && base.compare(base.size() - 5, 5, ".json") == 0) {
      base.erase(base.size() - 5);
    }
    WriteBundle(base, c, r);
  }
  const bool expect_violation = !c.violation_check.empty();
  if (expect_violation ? !r.Fails(c.violation_check) : r.violated()) {
    std::printf("replay MISMATCH: expected %s, got %s\n",
                expect_violation ? c.violation_check.c_str() : "clean",
                r.violated() ? r.failed_check.c_str() : "clean");
    return 1;
  }
  std::printf("replay ok: %s reproduced\n",
              expect_violation ? c.violation_check.c_str() : "clean run");
  return 0;
}

int RunDfs(const Case& base, const DfsOptions& dopts) {
  std::printf("dfs: %s seed=%llu sites=%d M=%lld depth<=%u runs<=%llu\n",
              SystemIdName(base.system),
              static_cast<unsigned long long>(base.seed), base.num_sites,
              static_cast<long long>(base.max_tokens), dopts.max_depth,
              static_cast<unsigned long long>(dopts.max_runs));
  const DfsStats st = ExploreDfs(base, dopts);
  std::printf("dfs: %llu runs, %llu states, %llu pruned, deepest branch %u, "
              "%s, %llu violating run(s)\n",
              static_cast<unsigned long long>(st.runs),
              static_cast<unsigned long long>(st.states),
              static_cast<unsigned long long>(st.prunes), st.deepest_branch,
              st.exhausted ? "EXHAUSTED" : "budget hit",
              static_cast<unsigned long long>(st.violations));
  if (st.violations == 0) return 0;
  std::printf("dfs: first violation [%s] choices = [",
              st.failed_check.c_str());
  for (size_t i = 0; i < st.failing_choices.size(); ++i) {
    std::printf("%s%u", i == 0 ? "" : ",", st.failing_choices[i]);
  }
  std::printf("]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "faults";
  // Scenario knobs left at -1 take the mode's default: the 5-site chaos
  // deployment for faults, the 3-site contention scenario otherwise.
  int seeds = -1;
  int sites = -1;
  int64_t max_tokens = -1;
  int duration_s = -1;
  uint64_t seed_base = 1;
  std::vector<SystemKind> systems = {SystemKind::kSamyaMajority,
                                     SystemKind::kSamyaAny};
  std::vector<double> intensities = {0.5, 1.0, 2.0, 3.0};
  std::vector<std::string> schedulers = {"random", "pct"};
  int pct_depth = 3;
  int window_ms = 5;
  double isolate = 0.0;
  bool disconnected = false;
  bool quiescence_guard = true;
  std::string mutation;
  std::string corpus_dir;
  std::string case_file;
  bool shrink = true;
  bool emit_corpus = false;
  int threads = 0;
  bool list_only = false;
  DfsOptions dopts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--mode") {
      mode = next();
    } else if (arg == "--seeds") {
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
    } else if (arg == "--schedulers") {
      schedulers = SplitCsv(next());
      for (const std::string& name : schedulers) {
        if (name != "fifo" && name != "random" && name != "pct") {
          std::fprintf(stderr, "unknown scheduler: %s\n", name.c_str());
          return 2;
        }
      }
    } else if (arg == "--pct-depth") {
      pct_depth = std::atoi(next());
    } else if (arg == "--window-ms") {
      window_ms = std::atoi(next());
    } else if (arg == "--isolate") {
      isolate = std::atof(next());
    } else if (arg == "--disconnected") {
      disconnected = true;
    } else if (arg == "--no-quiescence-guard") {
      quiescence_guard = false;
    } else if (arg == "--sites") {
      sites = std::atoi(next());
    } else if (arg == "--max-tokens") {
      max_tokens = std::atoll(next());
    } else if (arg == "--duration-s") {
      duration_s = std::atoi(next());
    } else if (arg == "--mutation") {
      mutation = next();
    } else if (arg == "--corpus") {
      corpus_dir = next();
    } else if (arg == "--case") {
      case_file = next();
    } else if (arg == "--no-shrink") {
      shrink = false;
    } else if (arg == "--emit-corpus") {
      emit_corpus = true;
    } else if (arg == "--threads") {
      threads = std::atoi(next());
    } else if (arg == "--max-depth") {
      dopts.max_depth = static_cast<uint32_t>(std::atoi(next()));
    } else if (arg == "--max-runs") {
      dopts.max_runs = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--list") {
      list_only = true;
    } else {
      Usage();
      return arg == "--help" ? 0 : 2;
    }
  }

  if (mode == "replay") {
    if (case_file.empty()) {
      std::fprintf(stderr, "--mode replay needs --case FILE\n");
      return 2;
    }
    return RunReplay(case_file);
  }
  const bool faults = mode == "faults";
  if (!faults && mode != "schedules" && mode != "dfs") {
    Usage();
    return 2;
  }
  if (sites != -1 && sites < 1) {
    Usage();
    return 2;
  }

  // The scenario every config of this invocation shares; nemesis schedules
  // are generated per (system, seed, intensity) on top of it.
  const auto make_case = [&](SystemKind system, uint64_t seed) {
    Case c = faults ? Case{} : ContentionCase(system);
    c.system = system;
    c.seed = seed;
    if (sites != -1) c.num_sites = sites;
    if (max_tokens != -1) {
      c.max_tokens = max_tokens;
      if (!faults) c.scripts = ContentionScripts(max_tokens);
    }
    if (duration_s != -1) c.duration = Seconds(duration_s);
    c.window = Millis(window_ms);
    c.quiescence_guard = quiescence_guard;
    c.disconnected_mode = disconnected;
    c.mutation = mutation;
    return c;
  };

  if (mode == "dfs") {
    return RunDfs(make_case(systems.front(), seed_base), dopts);
  }

  if (seeds == -1) seeds = faults ? 25 : 10;
  std::vector<Config> configs;
  for (SystemKind system : systems) {
    const size_t axis = faults ? intensities.size() : schedulers.size();
    for (size_t a = 0; a < axis; ++a) {
      for (int s = 0; s < seeds; ++s) {
        Config cfg;
        cfg.c = make_case(system, seed_base + static_cast<uint64_t>(s));
        const std::string seed_tag = "_seed" + std::to_string(cfg.c.seed);
        if (faults) {
          const Case nemesis =
              MakeNemesisCase(system, cfg.c.seed, intensities[a],
                              cfg.c.num_sites, isolate, disconnected);
          cfg.c.schedule = nemesis.schedule;
          cfg.label = "intensity=" + NumberTag(intensities[a]);
          cfg.basename = std::string("chaos_") + SystemIdName(system) +
                         seed_tag + "_i" + NumberTag(intensities[a]);
          if (isolate != 0.0) cfg.basename += "_iso" + NumberTag(isolate);
          if (disconnected) cfg.basename += "_dm";
        } else {
          cfg.scheduler = schedulers[a];
          cfg.label = schedulers[a];
          cfg.basename = std::string("explore_") + SystemIdName(system) +
                         "_" + schedulers[a] + seed_tag;
        }
        if (!mutation.empty()) cfg.basename += "_mut_" + mutation;
        configs.push_back(std::move(cfg));
      }
    }
  }

  const Case shown = make_case(systems.front(), seed_base);
  std::printf("samya_search %s: %zu configs (%zu systems x %zu %s x %d "
              "seeds), %d sites, M=%lld, duration %llds%s%s\n",
              mode.c_str(), configs.size(), systems.size(),
              faults ? intensities.size() : schedulers.size(),
              faults ? "intensities" : "schedulers", seeds, shown.num_sites,
              static_cast<long long>(shown.max_tokens),
              static_cast<long long>(shown.duration / Seconds(1)),
              quiescence_guard ? "" : " [quiescence guard OFF]",
              mutation.empty() ? "" : (" [mutation " + mutation + "]").c_str());
  if (list_only) {
    for (const Config& cfg : configs) {
      std::printf("  %s seed=%llu %s schedule_ops=%zu\n",
                  SystemIdName(cfg.c.system),
                  static_cast<unsigned long long>(cfg.c.seed),
                  cfg.label.c_str(), cfg.c.schedule.size());
    }
    return 0;
  }

  // Test-only mutations are process-global flags, so mutated sweeps must not
  // share the process with concurrent runs.
  if (!mutation.empty()) threads = 1;
  std::vector<CaseResult> results(configs.size());
  RunIndexed(configs.size(), threads, [&](size_t i) {
    const std::unique_ptr<sim::ScheduleOracle> oracle =
        MakeOracle(configs[i], pct_depth);
    results[i] = RunCase(configs[i].c, oracle.get());
  });

  int violating = 0;
  for (size_t i = 0; i < configs.size(); ++i) {
    const Config& cfg = configs[i];
    const CaseResult& r = results[i];
    PrintRun(cfg.c, cfg.label, r);
    // A written case replays the run's delivery order whichever scheduler
    // picked it (FIFO tails are implied).
    Case found = cfg.c;
    found.choices = r.choices;
    while (!found.choices.empty() && found.choices.back() == 0) {
      found.choices.pop_back();
    }
    const std::string base = corpus_dir + "/" + cfg.basename;
    if (!r.violated()) {
      if (emit_corpus && !corpus_dir.empty()) {
        found.note = "regression guard: swept clean by samya_search";
        WriteCaseFile(base, found);
      }
      continue;
    }
    ++violating;
    found.violation_check = r.failed_check;
    if (shrink) {
      int runs_used = 0;
      const Case minimized = MinimizeCase(found, /*max_runs=*/300, &runs_used);
      std::printf("  shrunk %zu -> %zu ops, %zu -> %zu choices in %d runs\n",
                  found.schedule.size(), minimized.schedule.size(),
                  found.choices.size(), minimized.choices.size(), runs_used);
      found = minimized;
    }
    if (!corpus_dir.empty()) {
      found.note = "found by samya_search; minimized by ddmin";
      WriteCaseFile(base, found);
      WriteBundle(base, found, RunCase(found));
    }
  }

  std::printf("\nsamya_search %s: %d/%zu configs violated\n", mode.c_str(),
              violating, configs.size());
  // Under a mutation the sweep *must* catch the bug somewhere in the budget;
  // clean code must never flag at all.
  if (!mutation.empty()) return violating > 0 ? 0 : 1;
  return violating == 0 ? 0 : 1;
}
