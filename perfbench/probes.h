#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "bench.h"
#include "rt/latency_model.h"
#include "storage/stable_storage.h"

namespace perfbench {

/// Storage calls of one or more sites, as counted by `TimedStorage`.
struct StorageCounters {
  Span put;
  Span get;
  Span del;
};

/// A forwarding `StableStorage`, installed with `core::Site::set_storage`
/// before the site starts: it wraps the store the cluster gave the site and
/// counts and times every Put/Get/Delete. Not thread-safe: it serves the
/// serial loop.
class TimedStorage final : public samya::storage::StableStorage {
 public:
  TimedStorage(samya::storage::StableStorage* inner, StorageCounters* counters)
      : inner_(inner), counters_(counters) {}

  samya::Status Put(const std::string& key,
                    const std::vector<uint8_t>& value) override {
    const auto start = Clock::now();
    samya::Status s = inner_->Put(key, value);
    counters_->put.Add(NanosSince(start));
    return s;
  }
  samya::Result<std::vector<uint8_t>> Get(
      const std::string& key) const override {
    const auto start = Clock::now();
    auto r = inner_->Get(key);
    counters_->get.Add(NanosSince(start));
    return r;
  }
  samya::Status Delete(const std::string& key) override {
    const auto start = Clock::now();
    samya::Status s = inner_->Delete(key);
    counters_->del.Add(NanosSince(start));
    return s;
  }
  std::vector<std::string> Keys() const override { return inner_->Keys(); }

 private:
  samya::storage::StableStorage* inner_;
  StorageCounters* counters_;
};

/// The smallest one-way base latency between (or within) the paper's five
/// regions: no request path has fewer than four such hops.
inline int64_t SmallestBaseHopUs() {
  const samya::rt::LatencyModel model;
  int64_t best = std::numeric_limits<int64_t>::max();
  for (samya::rt::Region a : samya::rt::kPaperRegions) {
    for (samya::rt::Region b : samya::rt::kPaperRegions) {
      best = std::min<int64_t>(best, model.Base(a, b));
    }
  }
  return best;
}

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
