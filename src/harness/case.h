#ifndef SAMYA_HARNESS_CASE_H_
#define SAMYA_HARNESS_CASE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "harness/experiment.h"
#include "harness/lin_check.h"
#include "sim/nemesis.h"
#include "sim/schedule_oracle.h"
#include "workload/request_stream.h"

namespace samya::harness {

/// \brief One reproducible run (DESIGN.md §7, §10): a system and workload,
/// a fault schedule, and a message-delivery order.
///
/// Serialized as "samya-case-v1"; a case commits to
/// `tests/integration/corpus/` and replays bit-identically. It holds only
/// what a replay reads — the knobs that bred it (nemesis intensity, the
/// scheduler that picked `choices`) stay with the search.
///
/// Two axes of nondeterminism, either or both:
///  - `schedule`: network faults applied at fixed sim times;
///  - `choices`: the delivery-order decisions a `ReplayOracle` replays.
///
/// `scripts` selects the profile. Empty runs the seeded Azure-trace
/// workload (the chaos profile). Non-empty plays those fixed scripts with
/// proactive prediction off and every client op checked against the
/// system's token spec (the exploration profile).
struct Case {
  SystemKind system = SystemKind::kSamyaMajority;
  uint64_t seed = 1;
  int num_sites = 5;
  int64_t max_tokens = 5000;
  Duration duration = Seconds(50);  ///< load window (run drains 10s more)
  /// Per-region client scripts (region r plays scripts[r]; missing entries
  /// idle). Empty => the seeded trace workload.
  std::vector<std::vector<workload::Request>> scripts;
  sim::FaultSchedule schedule;
  /// The auditor's quiescence guard. Guard-off cases (the shrink pipeline's
  /// manufactured conservation violations) must replay guard-off too.
  bool quiescence_guard = true;
  /// Arms Samya's disconnected-site mode (DESIGN.md §12).
  bool disconnected_mode = false;
  Duration window = Millis(5);  ///< oracle commutativity window
  /// Recorded oracle choices; decisions past the end fall back to FIFO.
  std::vector<uint32_t> choices;
  /// Test-only mutation armed for the run ("" = none); see
  /// common/testonly_mutation.h. Mutations are process-global: cases with
  /// one set must not run concurrently with other runs.
  std::string mutation;
  /// Provenance: the check this case reproduces ("" = a regression guard
  /// expected to replay clean), and a note for humans.
  std::string violation_check;
  std::string note;

  JsonValue ToJson() const;
  /// Rejects the whole document on any bad field, including `num_sites` < 1
  /// and more scripts than the deployment's five client regions.
  static Result<Case> FromJson(const JsonValue& v);
};

/// Reads and parses a case file; any I/O, JSON or field error fails it.
Result<Case> LoadCase(const std::string& path);

/// Writes `c.ToJson()` to `path` in the corpus's canonical form
/// (`JsonDump` indent 2, no trailing newline).
Status WriteCase(const Case& c, const std::string& path);

/// Wire-format name of a SystemKind ("samya_majority"); inverse of
/// `SystemKindFromId`. Stable across releases — corpus files depend on it.
const char* SystemIdName(SystemKind kind);
bool SystemKindFromId(const std::string& id, SystemKind* out);

/// The standard small contention scenario: three active regions issuing a
/// handful of acquires/releases/reads, sized so the second burst overdraws
/// a local pool and forces 1–2 reactive Avantan rounds.
std::vector<std::vector<workload::Request>> ContentionScripts(
    int64_t max_tokens);

/// A scripted case over `ContentionScripts`: 3 sites, 3 s of load, and
/// M = 31 by default — deliberately not divisible by 3, so the M % n
/// allocation remainder is live and the "alloc_remainder" mutation shows.
Case ContentionCase(SystemKind system, int64_t max_tokens = 31);

/// A chaos case whose schedule is the standard nemesis for (system, seed,
/// intensity). The nemesis targets nodes 0..num_sites-1, so the site count
/// is fixed before generation. `isolate` > 0 adds site-isolation waves, each
/// cutting one site's whole island (the site plus its region's app manager
/// and client, so load keeps arriving at the cut-off site).
Case MakeNemesisCase(SystemKind system, uint64_t seed, double intensity,
                     int num_sites = 5, double isolate = 0.0,
                     bool disconnected_mode = false);

/// The ExperimentOptions a case runs under: workload, faults, the auditor
/// (armed on the systems it models; heal_time / load_end derived from the
/// case) and the always-armed flight recorder. `RunCase` adds the oracle
/// and the history recorder.
ExperimentOptions MakeCaseOptions(const Case& c);

/// Everything one run yields: the experiment result (auditor violations,
/// counters, the observability bundle), the history checker's verdict, and
/// the decision trace.
struct CaseResult : ExperimentResult {
  CaseResult() = default;
  explicit CaseResult(ExperimentResult r) : ExperimentResult(std::move(r)) {}

  CheckResult check;  ///< history verdict; trivially ok for unscripted cases
  std::vector<sim::ChoicePoint> trace;
  std::vector<uint32_t> choices;  ///< trace projected to chosen indices
  uint64_t ops_recorded = 0;
  /// First failed check: an auditor check name ("conservation", ...), or
  /// "linearizability" / "bounded_safety" from the history checker. Empty
  /// when the run was clean.
  std::string failed_check;

  bool violated() const { return !failed_check.empty(); }
  /// Did the run fail `check` ("" = any check)?
  bool Fails(const std::string& check) const;
};

/// Runs one case end to end. A case with scripts or choices runs under a
/// `ReplayOracle` of its choices unless `oracle` overrides it (a FIFO
/// replay is bit-identical to no oracle, so this only adds the trace).
CaseResult RunCase(const Case& c, sim::ScheduleOracle* oracle = nullptr);

/// \brief ddmin (Zeller & Hildebrandt) over `items`.
///
/// Removes ever-finer chunks, keeping a reduction whenever `fails` still
/// holds, then sweeps single items. Every call of `fails` counts one run
/// into `*runs`; the search stops once `*runs` reaches `max_runs`. Returns
/// a subset that is 1-minimal when the budget sufficed. Never returns an
/// empty subset of a non-empty input.
template <typename T, typename Fails>
std::vector<T> Ddmin(std::vector<T> items, const Fails& fails, int max_runs,
                     int* runs) {
  const auto attempt = [&](const std::vector<T>& candidate) {
    ++*runs;
    return fails(candidate);
  };
  size_t n = 2;
  while (items.size() >= 2 && *runs < max_runs) {
    const size_t chunk = (items.size() + n - 1) / n;
    bool reduced = false;
    for (size_t i = 0; i < n && i * chunk < items.size(); ++i) {
      if (*runs >= max_runs) break;
      std::vector<T> candidate;
      candidate.reserve(items.size() - chunk);
      for (size_t j = 0; j < items.size(); ++j) {
        if (j / chunk != i) candidate.push_back(items[j]);
      }
      if (candidate.size() == items.size() || candidate.empty()) continue;
      if (attempt(candidate)) {
        items = std::move(candidate);
        n = std::max<size_t>(n - 1, 2);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= items.size()) break;  // 1-minimal
      n = std::min(n * 2, items.size());
    }
  }
  // Final singleton sweep.
  for (size_t i = 0; i < items.size() && items.size() > 1;) {
    if (*runs >= max_runs) break;
    std::vector<T> candidate = items;
    candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
    if (attempt(candidate)) {
      items = std::move(candidate);
    } else {
      ++i;
    }
  }
  return items;
}

/// Shrinks a violating case: ddmin over its fault ops, then over its
/// choices, keeping a reduction iff the replay still fails
/// `c.violation_check` (any check when empty). Everything else is left
/// untouched, so the reproducer runs against the same simulated world.
/// `runs_used` reports the spend against `max_runs`.
Case MinimizeCase(const Case& c, int max_runs = 300, int* runs_used = nullptr);

/// Bounded exhaustive search knobs. `max_depth` caps how many decision
/// points may deviate from FIFO (the tree is complete up to that depth);
/// `max_runs` caps total re-executions.
struct DfsOptions {
  uint32_t max_depth = 10;
  uint64_t max_runs = 2000;
  /// Prune a run whose (choice, state-hash) signature was already seen —
  /// distinct prefixes that converge to the same interleaving share a
  /// subtree, so re-expanding it is pure waste.
  bool prune_states = true;
};

struct DfsStats {
  uint64_t runs = 0;
  uint64_t states = 0;  ///< distinct decision-context hashes encountered
  uint64_t prunes = 0;
  uint32_t deepest_branch = 0;  ///< deepest decision index branched on
  /// The frontier drained before `max_runs`: every schedule within
  /// `max_depth` deviations was covered (modulo state pruning).
  bool exhausted = false;
  uint64_t violations = 0;                ///< runs that failed a check
  std::vector<uint32_t> failing_choices;  ///< first violating schedule
  std::string failed_check;
};

/// \brief Bounded exhaustive DFS over the delivery orders of `base`.
///
/// Stateless search by re-execution: each frontier entry is a choice prefix,
/// replayed with FIFO past its end; the run's recorded trace then spawns one
/// child per untaken candidate at every decision index in
/// [prefix length, max_depth). Each bounded choice sequence is visited
/// exactly once; revisited run signatures are pruned.
DfsStats ExploreDfs(const Case& base, const DfsOptions& dopts);

}  // namespace samya::harness

#endif  // SAMYA_HARNESS_CASE_H_
