#include "checks.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string Format(const char* fmt, long long a, long long b) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

std::vector<std::string> CheckLedger(const Ledger& l, int64_t min_hop_us) {
  std::vector<std::string> failed;
  if (l.pooled_tokens + l.site_net_acquires != l.max_tokens) {
    failed.push_back(Format("eq1: pooled + held = %lld, M_e = %lld",
                            l.pooled_tokens + l.site_net_acquires,
                            l.max_tokens));
  }
  const auto client_net = static_cast<int64_t>(l.client_acquires) -
                          static_cast<int64_t>(l.client_releases);
  if (l.site_net_acquires != client_net) {
    failed.push_back(Format("ledgers: sites hold %lld tokens net, clients "
                            "%lld",
                            l.site_net_acquires, client_net));
  }
  if (l.dropped != 0) {
    failed.push_back(Format("answered: %lld of %lld requests dropped",
                            static_cast<long long>(l.dropped),
                            static_cast<long long>(l.sent)));
  }
  if (l.sent != l.committed() + l.rejected) {
    failed.push_back(Format("answered: sent %lld, committed + rejected %lld",
                            static_cast<long long>(l.sent),
                            static_cast<long long>(l.committed() +
                                                   l.rejected)));
  }
  if (l.committed() == 0) {
    failed.push_back("answered: nothing committed");
  } else {
    if (l.min_latency_us < 4 * min_hop_us) {
      failed.push_back(Format("latency floor: fastest commit %lld us, "
                              "4 hops take %lld us",
                              l.min_latency_us, 4 * min_hop_us));
    }
    if (l.messages_sent < 4 * l.committed()) {
      failed.push_back(Format("message floor: %lld messages for %lld ops",
                              static_cast<long long>(l.messages_sent),
                              static_cast<long long>(l.committed())));
    }
  }
  return failed;
}

std::vector<std::string> CheckSameOutputs(const std::string& what,
                                          const SimDigest& expected,
                                          const SimDigest& got) {
  if (expected == got) return {};
  return {what + ": simulated outputs differ (events " +
          std::to_string(expected.events) + " vs " +
          std::to_string(got.events) + ", committed " +
          std::to_string(expected.committed_acquires +
                         expected.committed_releases +
                         expected.committed_reads) +
          " vs " +
          std::to_string(got.committed_acquires + got.committed_releases +
                         got.committed_reads) +
          ")"};
}

std::vector<std::string> CheckAuditor(uint64_t violations,
                                      uint64_t dropped_violations) {
  if (violations == 0 && dropped_violations == 0) return {};
  return {Format("auditor: %lld violations (+%lld past the cap)",
                 static_cast<long long>(violations),
                 static_cast<long long>(dropped_violations))};
}

std::vector<std::string> CheckSimVsReal(uint64_t sim_scripted,
                                        double sim_msgs_per_op,
                                        uint64_t real_scripted,
                                        double real_msgs_per_op) {
  std::vector<std::string> failed;
  if (sim_scripted != real_scripted) {
    failed.push_back(Format("sim vs real: sim committed or skipped %lld, "
                            "real %lld",
                            static_cast<long long>(sim_scripted),
                            static_cast<long long>(real_scripted)));
  }
  if (!(std::abs(real_msgs_per_op - sim_msgs_per_op) <=
        0.05 * sim_msgs_per_op)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "sim vs real: %.4f messages/op real, %.4f sim",
                  real_msgs_per_op, sim_msgs_per_op);
    failed.push_back(buf);
  }
  return failed;
}

}  // namespace perfbench
