#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// \file
/// The benchmark's own correctness checks. Each takes plain numbers the
/// workload read off the finished run (never a verdict the program computed
/// itself) and returns one line per failed check, so a test can feed each
/// check a wrong result.

/// End-of-run state of one drained Samya run, read from the sites and the
/// clients directly.
struct Ledger {
  int64_t max_tokens = 0;     ///< M_e
  int64_t pooled_tokens = 0;  ///< sum of Site::tokens_left()
  /// The sites' ledger: committed acquires minus releases, summed over
  /// SiteStats.
  int64_t site_net_acquires = 0;
  uint64_t client_acquires = 0;  ///< sum of ClientStats::committed_acquires
  uint64_t client_releases = 0;
  uint64_t client_reads = 0;
  uint64_t sent = 0;
  uint64_t rejected = 0;
  uint64_t dropped = 0;
  int64_t min_latency_us = 0;  ///< fastest committed request
  uint64_t messages_sent = 0;

  uint64_t committed() const {
    return client_acquires + client_releases + client_reads;
  }
};

/// Eq. 1, ledgers agree, every request answered, latency floor (no
/// committed request faster than 4 hops of `min_hop_us`) and message floor
/// (at least 4 messages per committed op).
std::vector<std::string> CheckLedger(const Ledger& ledger, int64_t min_hop_us);

/// Every simulated output of a run that must repeat exactly: the PDES pass
/// against the serial pass, or a later round against the first.
struct SimDigest {
  uint64_t committed_acquires = 0;
  uint64_t committed_releases = 0;
  uint64_t committed_reads = 0;
  uint64_t rejected = 0;
  uint64_t dropped = 0;
  uint64_t sent = 0;
  uint64_t latency_count = 0;
  int64_t latency_min = 0;
  int64_t latency_max = 0;
  double latency_mean = 0;
  double latency_p50 = 0;
  double latency_p99 = 0;
  uint64_t events = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t bytes_sent = 0;
  uint64_t redistributions = 0;
  uint64_t instances_completed = 0;
  uint64_t instances_aborted = 0;
  int64_t frozen_us = 0;
  int64_t pooled_tokens = 0;

  bool operator==(const SimDigest&) const = default;
};

std::vector<std::string> CheckSameOutputs(const std::string& what,
                                          const SimDigest& expected,
                                          const SimDigest& got);

/// The continuous InvariantAuditor ended with no violation.
std::vector<std::string> CheckAuditor(uint64_t violations,
                                      uint64_t dropped_violations);

/// The real backend committed as many ops as the simulator on the same
/// scripts, with messages per op within 5% of it. A client skips a scripted
/// release while it holds no tokens, and whether it holds one depends on
/// whether an acquire's reply beat the release's due time, which real
/// scheduling can change. So each side's count is its committed ops plus
/// its skipped releases: every scripted request, each accounted for once.
std::vector<std::string> CheckSimVsReal(uint64_t sim_scripted,
                                        double sim_msgs_per_op,
                                        uint64_t real_scripted,
                                        double real_msgs_per_op);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
