#ifndef SAMYA_WORKLOAD_REQUEST_STREAM_H_
#define SAMYA_WORKLOAD_REQUEST_STREAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/time.h"
#include "workload/trace.h"

namespace samya::workload {

/// A single client request against the token store.
struct Request {
  enum class Type { kAcquire, kRelease, kRead };
  SimTime at = 0;
  Type type = Type::kAcquire;
  int64_t amount = 1;
};

/// Options for turning a demand trace into a timed request stream.
struct RequestStreamOptions {
  /// Fraction of *additional* read-only transactions injected (Fig 3h):
  /// read_ratio r means reads make up fraction r of all requests.
  double read_ratio = 0.0;
  /// Horizon cap: requests after this time are not generated (0 = no cap).
  SimTime horizon = 0;
  uint64_t seed = 7;
};

/// \brief One region client's timed requests, produced one trace interval
/// at a time (§5.1.2): each creation becomes acquireTokens(VM, 1) and each
/// deletion releaseTokens(VM, 1), spread uniformly within their interval,
/// with reads interleaved per `read_ratio`.
///
/// Memory is bounded by the busiest interval, not by the run length: the
/// stream keeps the (shared) trace, its RNG, the next interval index and
/// one reusable buffer holding the current interval's requests. Popping
/// the buffer's last request generates the next non-empty interval.
///
/// Order: intervals cover disjoint time ranges, so sorting each interval by
/// `at` makes the concatenated output globally time-sorted. Requests with
/// equal `at` keep generation order: acquires, then releases, then reads
/// (two generated requests of one kind at one instant are identical).
///
/// A fixed script (a vector of requests, e.g. an explorer scenario) is the
/// same stream with the buffer pre-filled and no trace behind it; it is
/// played as given.
class RequestStream {
 public:
  /// Plays `trace` as `PhaseShift(*trace, shift)` would, reading the
  /// shared trace at an offset instead of a rotated copy.
  RequestStream(std::shared_ptr<const DemandTrace> trace, Duration shift,
                const RequestStreamOptions& opts);
  /// A fixed script. Implicit so a vector can stand wherever a stream is
  /// taken.
  RequestStream(std::vector<Request> script);  // NOLINT(runtime/explicit)

  bool done() const { return pos_ >= buffer_.size(); }
  /// The next request. Requires !done().
  const Request& peek() const { return buffer_[pos_]; }
  /// Consumes the next request. Requires !done().
  void pop() {
    if (++pos_ == buffer_.size()) Refill();
  }
  /// Ends the stream: nothing more is produced and the buffer is freed.
  void Stop();

  /// Requests generated but not yet popped (at most one interval's worth).
  size_t buffered() const { return buffer_.size() - pos_; }

 private:
  /// Refills the buffer from the next interval that yields a request, or
  /// leaves it empty when the trace or horizon is exhausted.
  void Refill();

  std::shared_ptr<const DemandTrace> trace_;  ///< null for fixed scripts
  size_t shift_ = 0;  ///< in whole intervals, in [0, trace size)
  RequestStreamOptions opts_;
  Rng rng_;
  size_t next_interval_ = 0;
  std::vector<Request> buffer_;
  size_t pos_ = 0;
};

/// Drains a stream over `trace` (no phase shift) into a vector: the whole
/// time-sorted script at once, for tests and tools.
std::vector<Request> GenerateRequests(const DemandTrace& trace,
                                      const RequestStreamOptions& opts);

}  // namespace samya::workload

#endif  // SAMYA_WORKLOAD_REQUEST_STREAM_H_
