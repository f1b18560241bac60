#include "workload/transform.h"

#include "common/macros.h"
#include "common/random.h"

namespace samya::workload {

DemandTrace CompressTime(const DemandTrace& trace, int64_t factor) {
  SAMYA_CHECK_GT(factor, 0);
  SAMYA_CHECK_EQ(trace.interval() % factor, 0);
  return DemandTrace(trace.interval() / factor, trace.data());
}

size_t PhaseShiftIntervals(const DemandTrace& trace, Duration shift) {
  if (trace.size() == 0) return 0;
  const Duration total = trace.TotalDuration();
  // Normalize into [0, total).
  Duration s = shift % total;
  if (s < 0) s += total;
  return static_cast<size_t>(s / trace.interval());
}

DemandTrace PhaseShift(const DemandTrace& trace, Duration shift) {
  const size_t n = trace.size();
  if (n == 0) return trace;
  const size_t offset = PhaseShiftIntervals(trace, shift);

  std::vector<DemandInterval> rotated(n);
  for (size_t i = 0; i < n; ++i) {
    rotated[(i + offset) % n] = trace.at(i);
  }
  return DemandTrace(trace.interval(), std::move(rotated));
}

DemandTrace Truncate(const DemandTrace& trace, Duration duration) {
  SAMYA_CHECK_GE(duration, 0);
  const size_t keep = std::min(
      trace.size(), static_cast<size_t>(duration / trace.interval()));
  std::vector<DemandInterval> data(trace.data().begin(),
                                   trace.data().begin() +
                                       static_cast<long>(keep));
  return DemandTrace(trace.interval(), std::move(data));
}

DemandTrace ScaleCounts(const DemandTrace& trace, double factor,
                        uint64_t seed) {
  SAMYA_CHECK_GE(factor, 0.0);
  Rng rng(seed);
  std::vector<DemandInterval> data(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    // Binomial-style thinning keeps counts integral and unbiased.
    auto thin = [&](int64_t count) {
      if (factor >= 1.0) {
        const double scaled = static_cast<double>(count) * factor;
        return rng.Poisson(scaled);
      }
      int64_t kept = 0;
      for (int64_t k = 0; k < count; ++k) kept += rng.Bernoulli(factor);
      return kept;
    };
    data[i].creations = thin(trace.at(i).creations);
    data[i].deletions = thin(trace.at(i).deletions);
  }
  return DemandTrace(trace.interval(), std::move(data));
}

}  // namespace samya::workload
