#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline int64_t NanosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// The command line of one invocation.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;  ///< per-layer run instead of the end-to-end one
};

/// Wall time of the calls into one module function: the benchmark's span
/// around that layer boundary.
struct Span {
  uint64_t calls = 0;
  int64_t ns = 0;

  void Add(int64_t call_ns) {
    ++calls;
    ns += call_ns;
  }
  double NsPerCall() const {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / calls;
  }
};

/// What one invocation prints: the result line's counts and metrics, plus
/// the checks that failed (empty when every output was correct).
class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check once, however many rounds repeat it.
  void Fail(const std::string& what) {
    if (seen_.insert(what).second) failures_.push_back(what);
  }
  void Fail(const std::vector<std::string>& whats) {
    for (const std::string& w : whats) Fail(w);
  }
  /// One client request sent; `dropped` when the client gave up on it.
  void CountOps(uint64_t sent, uint64_t dropped) {
    attempted_ += sent;
    failed_ += dropped;
  }

  bool Has(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return true;
    }
    return false;
  }
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::set<std::string> seen_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

Report RunFig3b(const RunArgs& args);
Report RunAuditedRw(const RunArgs& args);
/// fig3b's real-backend twin (real_probe.cc): adds the rt.* per-layer
/// metrics and the real runs' checks to `report`.
void MeasureRealBackend(uint64_t seed, Report* report);

/// Heap allocations made so far by this process (alloc_count.cc).
uint64_t AllocationCount();

/// Median of `v` (0 for an empty vector).
double Median(std::vector<double> v);
/// The `q`-quantile (0..1) of `v` by linear interpolation.
double Quantile(std::vector<double> v, double q);
/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
