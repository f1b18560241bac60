#ifndef SAMYA_HARNESS_POSTMORTEM_H_
#define SAMYA_HARNESS_POSTMORTEM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "harness/experiment.h"
#include "harness/case.h"
#include "obs/flight_recorder.h"

namespace samya::harness {

/// \file
/// Post-mortem bundles (DESIGN.md §13).
///
/// A bundle is the self-contained forensic record of one violating run:
/// the reproducer (case JSON), the auditor's violation list, the metrics
/// snapshot, and the flight-recorder tail. `samya_search` and the corpus
/// replay test dump one next to every violating case
/// ("<case>_postmortem.json"); `tools/samya_postmortem`
/// renders timelines, diffs two bundles to the first divergent protocol
/// event, and exports to Perfetto.

/// Format "samya-postmortem-v1". All sections are optional except
/// `failed_check`; absent sections load as JSON null / empty.
struct PostmortemBundle {
  /// Producing tool ("samya_search", "corpus_replay", ...).
  std::string source;
  /// First failed check ("conservation", "linearizability", ...).
  std::string failed_check;
  /// The reproducer case document ("samya-case-v1"), verbatim; null when
  /// the run had none.
  JsonValue reproducer;
  std::vector<AuditViolation> violations;
  uint64_t dropped_violations = 0;  ///< past the auditor's cap
  /// `BuildMetricsSnapshot` of the violating run; null when obs was off.
  JsonValue metrics;
  /// `FlightRecorder::ToJson` ("samya-flight-v1"); null when unarmed.
  JsonValue flight;

  JsonValue ToJson() const;
  static Result<PostmortemBundle> FromJson(const JsonValue& v);
};

/// Builds a bundle from a finished case run. Pulls the flight section and
/// metrics snapshot out of `r.obs` when present; the history checker's
/// verdict rides as an extra violation when the checker failed.
/// `reproducer` is stored verbatim (pass `JsonValue()` for none).
PostmortemBundle MakePostmortem(const std::string& source,
                                JsonValue reproducer, const CaseResult& r);

/// Writes `b.ToJson()` to `path` (`JsonDump` indent 2 + trailing newline,
/// the corpus convention); loading and re-writing is byte-identical.
Status WritePostmortem(const PostmortemBundle& b, const std::string& path);
Result<PostmortemBundle> LoadPostmortem(const std::string& path);

/// The canonical protocol events of the bundle's flight section, decoded.
/// Empty when the bundle has no flight section; an event with an unknown
/// kind name fails the whole decode (corrupt bundle).
Result<std::vector<obs::FlightEvent>> FlightEventsOf(const PostmortemBundle& b);

/// The flight section's `complete_from` (0 when absent): the earliest time
/// from which the retained history is gap-free.
SimTime FlightCompleteFrom(const PostmortemBundle& b);

/// One human line: "t=12345us site=2 phase/engage a=7 b=993". Zero-valued
/// trailing payload fields are omitted.
std::string FormatFlightEvent(const obs::FlightEvent& ev);

/// First-divergence comparison of two bundles' canonical protocol
/// histories. Both sides are first trimmed to max(complete_from) so a
/// wrapped ring on one side never manufactures a phantom divergence.
struct PostmortemDiff {
  bool comparable = false;  ///< both bundles carried a flight section
  SimTime compare_from = 0;  ///< events before this were trimmed
  uint64_t compared = 0;     ///< matching events before divergence (or end)
  bool diverged = false;
  /// Index of the first divergent position in the trimmed streams, and the
  /// two events there (missing side rendered as "<end of history>").
  uint64_t divergence_index = 0;
  std::string event_a;
  std::string event_b;
};
PostmortemDiff DiffPostmortems(const PostmortemBundle& a,
                               const PostmortemBundle& b);

/// A sim-time interval derived from canonical flight events (DESIGN.md §8).
///
/// A *round* runs on one site from its `kPhaseEngage` for an instance to
/// that instance's `kPhaseFinish` or `kPhaseAbort`. It is a leader's round
/// ("round.leader") when the site also recorded `kPhaseElectionStart` or
/// `kPhaseRecoveryStart` for the instance, a cohort's ("round.cohort")
/// otherwise. A leader's *phases* ("election", "recovery", "accept",
/// "decided") are cut at its consecutive phase events and end with the round.
struct FlightSpan {
  const char* name = "";      ///< static string
  const char* category = "";  ///< "round" | "phase"
  int32_t site = -1;
  int64_t instance = 0;
  SimTime start = 0;
  SimTime end = 0;
  bool aborted = false;  ///< the round ended in kPhaseAbort

  bool is_round() const;
  bool operator==(const FlightSpan& o) const;
};

/// Spans of `events` (canonical order, as `FlightEventsOf` returns them).
/// Each round is followed by its phases; rounds appear in the order they
/// ended. A round whose engage event is missing (evicted from a wrapped
/// ring) is skipped, not invented, and a round still open at the end of the
/// history is not emitted.
std::vector<FlightSpan> DeriveFlightSpans(
    const std::vector<obs::FlightEvent>& events);

/// Chrome trace-event export of the bundle's flight history: instant events
/// per site process, violation markers on their own track, and the derived
/// spans as async "b"/"e" pairs keyed by instance. Loads in Perfetto.
Status ExportFlightChromeTrace(const PostmortemBundle& b,
                               const std::string& path);

}  // namespace samya::harness

#endif  // SAMYA_HARNESS_POSTMORTEM_H_
