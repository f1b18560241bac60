#ifndef SAMYA_WORKLOAD_TRANSFORM_H_
#define SAMYA_WORKLOAD_TRANSFORM_H_

#include "workload/trace.h"

namespace samya::workload {

/// \brief The §5.1.2 data-processing transforms.

/// Time compression: the same requests that arrived in one original interval
/// now arrive in `interval / factor` — e.g. factor 60 turns the 5-minute
/// Azure sampling into 5 seconds, shrinking 30 days to 12 hours and creating
/// the hot-spot request-arrival rate the paper evaluates.
DemandTrace CompressTime(const DemandTrace& trace, int64_t factor);

/// Phase shift: rotates the trace by `shift` of trace time, modelling a
/// region in a different time zone (peak demand in North America coincides
/// with off-peak in Asia). Positive shift moves the pattern later.
DemandTrace PhaseShift(const DemandTrace& trace, Duration shift);

/// The rotation `PhaseShift` applies, in whole intervals: `shift` normalized
/// into [0, TotalDuration()) and truncated to an interval (0 for an empty
/// trace).
size_t PhaseShiftIntervals(const DemandTrace& trace, Duration shift);

/// Truncates a trace to its first `duration` worth of intervals.
DemandTrace Truncate(const DemandTrace& trace, Duration duration);

/// Scales both creations and deletions by `factor` (used by the §5.9
/// arrival-rate sweep to thin the load without changing the shape).
DemandTrace ScaleCounts(const DemandTrace& trace, double factor,
                        uint64_t seed);

}  // namespace samya::workload

#endif  // SAMYA_WORKLOAD_TRANSFORM_H_
