// The simulator workloads: `fig3b` (the paper's Fig 3b run, serial and on
// PDES workers) and `audited-rw` (closed-loop Avantan[*] with global reads
// and the auditor, flight recorder and metrics armed).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "common/json.h"
#include "harness/experiment.h"
#include "probes.h"
#include "workload/azure_generator.h"

namespace perfbench {
namespace {

using samya::ToSeconds;
using samya::harness::Experiment;
using samya::harness::ExperimentOptions;
using samya::harness::ExperimentResult;
using samya::harness::SystemKind;

constexpr int kPdesWorkers = 4;

// In both workloads the seed steers the request streams drawn from the
// demand trace and every latency draw. The demand trace itself is the
// repository's one canonical synthetic Azure month (`AzureTraceOptions`
// defaults, as samya_bench runs it): its bursts set how hard a run is, so
// letting the seed redraw them would make seeds differ by far more than
// versions of the program do.

ExperimentOptions Fig3bOptions(uint64_t seed) {
  ExperimentOptions o;
  o.system = SystemKind::kSamyaMajority;
  o.num_sites = 5;
  o.max_tokens = 5000;
  o.duration = samya::Minutes(60);
  o.seed = seed;
  return o;
}

ExperimentOptions AuditedRwOptions(uint64_t seed) {
  ExperimentOptions o;
  o.system = SystemKind::kSamyaAny;
  o.num_sites = 5;
  o.duration = samya::Minutes(20);
  o.closed_loop = true;
  o.client_window = 4;
  o.read_ratio = 0.2;
  // A closed loop sends its script as fast as replies come back. At half
  // the trace's volume every script ends (at ~55% of the run) and the run
  // drains before it stops, so the end-of-run checks see a quiescent state;
  // halving M_e with it keeps the pools as close to exhaustion as the full
  // trace against M_e = 5000 (820-1,160 aborted instances, 300-420 s
  // frozen).
  o.load_scale = 0.5;
  o.max_tokens = 2500;
  o.audit.enabled = true;
  o.obs.flight_recorder = true;
  o.obs.metrics = true;
  o.seed = seed;
  return o;
}

/// The same inputs on the PDES worker pool. The auditor reads cross-site
/// state mid-run and so needs the serial loop: the PDES pass runs without
/// it, everything else unchanged.
ExperimentOptions PdesOptions(ExperimentOptions o) {
  o.pdes_workers = kPdesWorkers;
  o.audit.enabled = false;
  return o;
}

/// One Setup + Run with the benchmark's spans around both calls.
struct SimRun {
  double setup_s = 0;
  double run_s = 0;
  /// Simulated seconds until the last commit: a closed loop's scripts end
  /// before the run does, so its throughput is measured over this span.
  double active_s = 0;
  uint64_t allocs = 0;  ///< heap allocations inside Run
  std::string pdes_fallback;
  samya::sim::PdesRunStats pdes;
  ExperimentResult result;
  Ledger ledger;
  SimDigest digest;
  uint64_t site_rejected = 0;
};

SimRun RunExperiment(const ExperimentOptions& opts,
                     StorageCounters* storage = nullptr) {
  // Declared before the experiment so they outlive the sites using them.
  std::vector<std::unique_ptr<TimedStorage>> forwarders;
  Experiment ex(opts);
  SimRun run;
  auto start = Clock::now();
  ex.Setup();
  run.setup_s = SecondsSince(start);
  if (storage != nullptr) {
    for (samya::core::Site* site : ex.samya_sites()) {
      forwarders.push_back(std::make_unique<TimedStorage>(
          ex.cluster().StorageFor(site->id()), storage));
      site->set_storage(forwarders.back().get());
    }
  }
  const uint64_t allocs_before = AllocationCount();
  start = Clock::now();
  run.result = ex.Run();
  run.run_s = SecondsSince(start);
  run.allocs = AllocationCount() - allocs_before;
  if (opts.pdes_workers > 1) {
    if (ex.pdes_active()) {
      run.pdes = ex.cluster().pdes()->run_stats();
    } else {
      run.pdes_fallback = ex.pdes_fallback_reason();
    }
  }

  const ExperimentResult& r = run.result;
  for (size_t bin = r.throughput.num_bins(); bin > 0; --bin) {
    if (r.throughput.bin(bin - 1) > 0) {
      run.active_s = static_cast<double>(bin);
      break;
    }
  }
  Ledger& l = run.ledger;
  l.max_tokens = opts.max_tokens;
  for (const samya::core::Site* site : ex.samya_sites()) {
    l.pooled_tokens += site->tokens_left();
    l.site_net_acquires +=
        static_cast<int64_t>(site->stats().committed_acquires) -
        static_cast<int64_t>(site->stats().committed_releases);
    run.site_rejected += site->stats().rejected;
  }
  for (const samya::harness::WorkloadClient* client : ex.clients()) {
    const samya::harness::ClientStats& s = client->stats();
    l.client_acquires += s.committed_acquires;
    l.client_releases += s.committed_releases;
    l.client_reads += s.committed_reads;
    l.sent += s.sent;
    l.rejected += s.rejected;
    l.dropped += s.dropped;
  }
  l.min_latency_us = r.aggregate.latency.min();
  l.messages_sent = r.network.messages_sent;

  SimDigest& d = run.digest;
  d.committed_acquires = r.aggregate.committed_acquires;
  d.committed_releases = r.aggregate.committed_releases;
  d.committed_reads = r.aggregate.committed_reads;
  d.rejected = r.aggregate.rejected;
  d.dropped = r.aggregate.dropped;
  d.sent = r.aggregate.sent;
  d.latency_count = r.aggregate.latency.count();
  d.latency_min = r.aggregate.latency.min();
  d.latency_max = r.aggregate.latency.max();
  d.latency_mean = r.aggregate.latency.mean();
  d.latency_p50 = r.aggregate.latency.P50();
  d.latency_p99 = r.aggregate.latency.P99();
  d.events = r.events_executed - r.audit_ticks;  // auditor ticks are events
  d.messages_sent = r.network.messages_sent;
  d.messages_delivered = r.network.messages_delivered;
  d.bytes_sent = r.network.bytes_sent;
  d.redistributions =
      r.proactive_redistributions + r.reactive_redistributions;
  d.instances_completed = r.instances_completed;
  d.instances_aborted = r.instances_aborted;
  d.frozen_us = r.total_site_frozen_time;
  d.pooled_tokens = l.pooled_tokens;
  return run;
}

uint64_t Committed(const SimRun& run) {
  return run.result.aggregate.TotalCommitted();
}

/// Checks every run of a workload repeats the first one exactly, and that
/// the first one is right.
class SimChecker {
 public:
  SimChecker(Report* report, std::string workload)
      : report_(report), workload_(std::move(workload)) {}

  void Check(const std::string& what, const SimRun& run) {
    report_->CountOps(run.ledger.sent, run.ledger.dropped);
    if (!run.pdes_fallback.empty()) {
      report_->Fail(workload_ + " " + what + ": PDES fell back to serial: " +
                    run.pdes_fallback);
    }
    report_->Fail(CheckAuditor(run.result.violations.size(),
                               run.result.dropped_violations));
    if (have_first_) {
      report_->Fail(
          CheckSameOutputs(workload_ + " " + what, first_, run.digest));
      return;
    }
    first_ = run.digest;
    have_first_ = true;
    report_->Fail(CheckLedger(run.ledger, SmallestBaseHopUs()));
  }

 private:
  Report* report_;
  std::string workload_;
  SimDigest first_;
  bool have_first_ = false;
};

/// Calls `round(i)` for i = 0, 1, ... until `seconds` have passed; always
/// at least once, and always whole rounds.
template <typename F>
void ForRounds(double seconds, F round) {
  const auto start = Clock::now();
  int i = 0;
  do {
    round(i++);
  } while (SecondsSince(start) < seconds);
}

/// Extra Setup-only passes per round, so `setup_s` is a median of many.
constexpr int kExtraSetups = 3;

/// End-to-end run: serial rounds. The first round also runs the same
/// inputs on the PDES workers, to check they reproduce the serial outputs.
/// Run wall times are per-layer metrics (`sim.run_wall_s`, `pdes.wall_s`):
/// on a shared machine they drift too far between runs to gate.
Report EndToEnd(const RunArgs& args, const ExperimentOptions& opts) {
  Report report;
  SimChecker checker(&report, args.workload);
  std::vector<double> setup_s;
  SimDigest digest;
  double active_s = 0;
  ForRounds(args.seconds, [&](int round) {
    SimRun serial = RunExperiment(opts);
    checker.Check("serial", serial);
    if (round == 0) checker.Check("pdes", RunExperiment(PdesOptions(opts)));
    setup_s.push_back(serial.setup_s);
    for (int i = 0; i < kExtraSetups; ++i) {
      Experiment ex(opts);
      const auto start = Clock::now();
      ex.Setup();
      setup_s.push_back(SecondsSince(start));
    }
    digest = serial.digest;
    active_s = serial.active_s;
    std::fprintf(stderr, "%s round %d: setup %.3fs run %.3fs\n",
                 args.workload.c_str(), round, serial.setup_s, serial.run_s);
  });

  const double committed = static_cast<double>(digest.committed_acquires +
                                               digest.committed_releases +
                                               digest.committed_reads);
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("committed_per_s",
             committed / (opts.closed_loop ? active_s
                                           : ToSeconds(opts.duration)),
             "1/s");
  report.Add("latency_p50_ms", digest.latency_p50 / 1000.0, "ms");
  report.Add("latency_p99_ms", digest.latency_p99 / 1000.0, "ms");
  report.Add("msgs_per_op", digest.messages_sent / committed, "count");
  return report;
}

/// The profiler's wall time and call count for the given message types.
Span HandlerSpan(const samya::JsonValue& profile,
                 std::initializer_list<int64_t> types) {
  Span span;
  const samya::JsonValue* rows = profile.Find("by_type");
  if (rows == nullptr) return span;
  for (const samya::JsonValue& row : rows->as_array()) {
    const int64_t type = row.GetInt("type", -1);
    for (int64_t t : types) {
      if (t == type) {
        span.calls += static_cast<uint64_t>(row.GetInt("count", 0));
        span.ns += row.GetInt("ns", 0);
      }
    }
  }
  return span;
}

/// Per-layer run: the untraced run again, then the same inputs with the
/// event-loop profiler and the storage forwarder attached, on PDES, and
/// with observability and the auditor toggled.
Report PerLayer(const RunArgs& args, const ExperimentOptions& opts) {
  Report report;
  SimChecker checker(&report, args.workload);
  const bool audited = opts.audit.enabled;
  const bool obs_armed = opts.obs.flight_recorder || opts.obs.metrics;

  ExperimentOptions traced_opts = opts;
  traced_opts.obs.profiler = true;
  // obs.armed_s: the run with the flight recorder and metrics flipped.
  ExperimentOptions obs_flipped = opts;
  obs_flipped.obs.flight_recorder = !obs_armed;
  obs_flipped.obs.metrics = !obs_armed;
  ExperimentOptions audit_off = opts;
  audit_off.audit.enabled = false;

  std::vector<double> base_s, traced_s, trace_gen_s, obs_s, audit_s;
  std::vector<double> loop_ns, other_ns, timer_ns, request_ns, response_ns,
      avantan_ns, put_ns, puts_per_op;
  std::vector<double> pdes_wall_s, pdes_barrier_s, pdes_busy_s;
  SimRun first_base, first_traced, first_pdes;
  uint64_t flight_events = 0;

  ForRounds(args.seconds, [&](int round) {
    const auto gen_start = Clock::now();
    const samya::workload::DemandTrace trace =
        samya::workload::GenerateAzureTrace(opts.trace);
    trace_gen_s.push_back(SecondsSince(gen_start));

    SimRun base = RunExperiment(opts);
    checker.Check("untraced", base);
    StorageCounters round_storage;
    SimRun traced = RunExperiment(traced_opts, &round_storage);
    checker.Check("profiled", traced);
    SimRun pdes = RunExperiment(PdesOptions(opts));
    checker.Check("pdes", pdes);
    SimRun flipped = RunExperiment(obs_flipped);
    checker.Check("obs flipped", flipped);
    base_s.push_back(base.run_s);
    traced_s.push_back(traced.run_s);
    obs_s.push_back(obs_armed ? base.run_s - flipped.run_s
                              : flipped.run_s - base.run_s);
    const SimRun& armed = obs_armed ? base : flipped;
    flight_events = armed.result.obs->flight()->total();
    if (audited) {
      SimRun unaudited = RunExperiment(audit_off);
      checker.Check("unaudited", unaudited);
      audit_s.push_back(base.run_s - unaudited.run_s);
    }

    const samya::JsonValue profile =
        traced.result.obs->profiler()->ToJson();
    const auto events = static_cast<double>(profile.GetInt("events", 1));
    loop_ns.push_back(profile.GetInt("loop_ns", 0) / events);
    other_ns.push_back(profile.GetInt("other_ns", 0) / events);
    const auto timers = static_cast<double>(profile.GetInt("timer_count", 0));
    timer_ns.push_back(timers > 0 ? profile.GetInt("timer_ns", 0) / timers
                                  : 0.0);
    request_ns.push_back(
        HandlerSpan(profile, {samya::kMsgTokenRequest,
                              samya::kMsgTokenBatchRequest})
            .NsPerCall());
    response_ns.push_back(
        HandlerSpan(profile, {samya::kMsgTokenResponse}).NsPerCall());
    avantan_ns.push_back(
        static_cast<double>(
            HandlerSpan(profile, {200, 201, 202, 203, 204}).ns) /
        static_cast<double>(Committed(traced)));
    put_ns.push_back(round_storage.put.NsPerCall());
    puts_per_op.push_back(static_cast<double>(round_storage.put.calls) /
                          static_cast<double>(Committed(traced)));

    // A worker not inside a claim is scanning for one or stalled at the
    // lead bound; global-op barriers stall them all.
    const samya::sim::PdesRunStats& ps = pdes.pdes;
    int64_t busy = 0, stalled = ps.barrier_ns;
    for (const auto& w : ps.workers) {
      busy += w.busy_ns;
      stalled += ps.phase_wall_ns - w.busy_ns;
    }
    pdes_wall_s.push_back(pdes.run_s);
    pdes_barrier_s.push_back(stalled / 1e9);
    pdes_busy_s.push_back(busy / 1e9);
    if (round == 0) {
      first_base = std::move(base);
      first_traced = std::move(traced);
      first_pdes = std::move(pdes);
    }
  });

  const ExperimentResult& r = first_base.result;
  const double committed = static_cast<double>(Committed(first_base));
  const auto events = static_cast<double>(r.events_executed);
  const samya::JsonValue profile =
      first_traced.result.obs->profiler()->ToJson();
  uint64_t windows = 0, mailbox = 0;
  for (const auto& p : first_pdes.pdes.partitions) {
    windows += p.windows;
    mailbox += p.mailbox_events;
  }

  report.Add("sim.run_wall_s", Median(base_s), "s");
  report.Add("sim.events", events, "count");
  report.Add("sim.events_per_s", events / Median(base_s), "1/s");
  report.Add("sim.allocs_per_event", first_base.allocs / events, "count");
  report.Add("sim.loop_ns_per_event", Median(loop_ns), "ns");
  report.Add("sim.other_ns_per_event", Median(other_ns), "ns");
  report.Add("sim.timers", profile.GetInt("timer_count", 0), "count");
  report.Add("sim.timer_ns_per_call", Median(timer_ns), "ns");
  report.Add("sim.bytes_per_op", r.network.bytes_sent / committed, "bytes");
  report.Add("pdes.wall_s", Median(pdes_wall_s), "s");
  report.Add("pdes.windows", windows, "count");
  report.Add("pdes.mailbox_events", mailbox, "count");
  report.Add("pdes.barrier_s", Median(pdes_barrier_s), "s");
  report.Add("pdes.busy_s", Median(pdes_busy_s), "s");
  report.Add("pdes.overhead_s", Median(pdes_busy_s) - Median(base_s), "s");
  report.Add("core.token_request_ns", Median(request_ns), "ns");
  report.Add("core.token_response_ns", Median(response_ns), "ns");
  report.Add("core.avantan_ns_per_op", Median(avantan_ns), "ns");
  report.Add("core.redistributions",
             r.proactive_redistributions + r.reactive_redistributions,
             "count");
  report.Add("core.aborted", r.instances_aborted, "count");
  report.Add("core.frozen_s", ToSeconds(r.total_site_frozen_time), "s");
  report.Add("core.rejected", first_base.site_rejected, "count");
  report.Add("storage.puts_per_op", Median(puts_per_op), "count");
  report.Add("storage.put_ns", Median(put_ns), "ns");
  report.Add("workload.trace_gen_s", Median(trace_gen_s), "s");
  report.Add("obs.flight_events", flight_events, "count");
  report.Add("obs.armed_s", Median(obs_s), "s");
  report.Add("harness.audit_s", Median(audit_s), "s");
  report.Add("harness.audit_ticks", r.audit_ticks, "count");
  report.Add("trace.overhead_s", Median(traced_s) - Median(base_s), "s");
  return report;
}

}  // namespace

Report RunFig3b(const RunArgs& args) {
  const ExperimentOptions opts = Fig3bOptions(args.seed);
  if (!args.trace) return EndToEnd(args, opts);
  Report report = PerLayer(args, opts);
  MeasureRealBackend(args.seed, &report);
  return report;
}

Report RunAuditedRw(const RunArgs& args) {
  const ExperimentOptions opts = AuditedRwOptions(args.seed);
  return args.trace ? PerLayer(args, opts) : EndToEnd(args, opts);
}

}  // namespace perfbench
