// perfbench — the Samya benchmark. Runs one workload for a fixed wall time
// and prints its result as the last line of stdout:
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (README.md lists both). Exits 1 when a check fails, 2 on a
// bad command line.
//
// Usage:
//   perfbench --workload fig3b|audited-rw --seed N --seconds S
//             --trace 0|1

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // JSON has no NaN/inf; a metric that is not finite is reported as 0.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// The metrics BENCHMARK.json names. Every end-to-end metric is measured on
// every workload; a per-layer metric of a layer a workload does not run
// reads 0 there.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    {"committed_per_s", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"}, {"msgs_per_op", "count"},
};
constexpr MetricName kPerLayer[] = {
    {"sim.run_wall_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.allocs_per_event", "count"},
    {"sim.loop_ns_per_event", "ns"},
    {"sim.other_ns_per_event", "ns"},
    {"sim.timers", "count"},
    {"sim.timer_ns_per_call", "ns"},
    {"sim.bytes_per_op", "bytes"},
    {"pdes.wall_s", "s"},
    {"pdes.windows", "count"},
    {"pdes.mailbox_events", "count"},
    {"pdes.barrier_s", "s"},
    {"pdes.busy_s", "s"},
    {"pdes.overhead_s", "s"},
    {"core.token_request_ns", "ns"},
    {"core.token_response_ns", "ns"},
    {"core.avantan_ns_per_op", "ns"},
    {"core.redistributions", "count"},
    {"core.aborted", "count"},
    {"core.frozen_s", "s"},
    {"core.rejected", "count"},
    {"storage.puts_per_op", "count"},
    {"storage.put_ns", "ns"},
    {"workload.trace_gen_s", "s"},
    {"obs.flight_events", "count"},
    {"obs.armed_s", "s"},
    {"harness.audit_s", "s"},
    {"harness.audit_ticks", "count"},
    {"rt.real_p50_ms", "ms"},
    {"rt.real_p99_ms", "ms"},
    {"rt.sim_p50_ms", "ms"},
    {"rt.wake_lateness_us", "us"},
    {"rt.post_ns", "ns"},
    {"rt.generator_late_ms", "ms"},
    {"rt.frame_codec_ns", "ns"},
    {"rt.frames_rejected", "count"},
    {"trace.overhead_s", "s"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fig3b|audited-rw "
               "--seed N --seconds S --trace 0|1\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      Usage();
      return 2;
    }
  }
  if (args.seconds < 1 || args.seconds > 600) {
    std::fprintf(stderr, "perfbench: --seconds must be in [1, 600]\n");
    return 2;
  }

  perfbench::Report report;
  if (args.workload == "fig3b") {
    report = perfbench::RunFig3b(args);
  } else if (args.workload == "audited-rw") {
    report = perfbench::RunAuditedRw(args);
  } else {
    Usage();
    return 2;
  }
  if (args.trace) {
    for (const MetricName& m : kPerLayer) {
      if (!report.Has(m.name)) report.Add(m.name, 0.0, m.unit);
    }
  } else {
    for (const MetricName& m : kEndToEnd) {
      if (!report.Has(m.name)) {
        report.Fail(std::string("metric not measured: ") + m.name);
      }
    }
  }
  for (const std::string& f : report.failures()) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", report.Json().c_str());
  return report.correct() ? 0 : 1;
}
