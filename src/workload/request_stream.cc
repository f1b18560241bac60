#include "workload/request_stream.h"

#include <algorithm>

#include "common/macros.h"
#include "workload/transform.h"

namespace samya::workload {

RequestStream::RequestStream(std::shared_ptr<const DemandTrace> trace,
                             Duration shift, const RequestStreamOptions& opts)
    : trace_(std::move(trace)), opts_(opts), rng_(opts.seed) {
  SAMYA_CHECK(trace_ != nullptr);
  SAMYA_CHECK_GE(opts_.read_ratio, 0.0);
  SAMYA_CHECK_LT(opts_.read_ratio, 1.0);
  shift_ = PhaseShiftIntervals(*trace_, shift);
  Refill();
}

RequestStream::RequestStream(std::vector<Request> script)
    : rng_(0), buffer_(std::move(script)) {}

void RequestStream::Stop() {
  trace_.reset();
  buffer_ = {};
  pos_ = 0;
}

void RequestStream::Refill() {
  buffer_.clear();
  pos_ = 0;
  if (trace_ == nullptr) return;
  const size_t n = trace_->size();
  const Duration iv = trace_->interval();
  while (buffer_.empty() && next_interval_ < n) {
    const size_t i = next_interval_++;
    const SimTime start = static_cast<SimTime>(i) * iv;
    if (opts_.horizon > 0 && start >= opts_.horizon) {
      next_interval_ = n;
      break;
    }
    const DemandInterval& demand = trace_->at((i + n - shift_) % n);
    auto emit = [&](Request::Type type, int64_t count) {
      for (int64_t k = 0; k < count; ++k) {
        Request r;
        r.at = start + rng_.UniformInt(0, iv - 1);
        r.type = type;
        r.amount = 1;
        if (opts_.horizon > 0 && r.at >= opts_.horizon) continue;
        buffer_.push_back(r);
      }
    };
    emit(Request::Type::kAcquire, demand.creations);
    emit(Request::Type::kRelease, demand.deletions);
    if (opts_.read_ratio > 0) {
      // reads / (writes + reads) = read_ratio
      const int64_t writes = demand.creations + demand.deletions;
      const double reads_f = opts_.read_ratio / (1 - opts_.read_ratio) *
                             static_cast<double>(writes);
      emit(Request::Type::kRead, rng_.Poisson(reads_f));
    }
  }
  // Generated requests of one kind differ only in `at`, so ordering ties
  // by kind reproduces generation order without a stable sort's buffer.
  std::sort(buffer_.begin(), buffer_.end(),
            [](const Request& a, const Request& b) {
              return a.at != b.at ? a.at < b.at : a.type < b.type;
            });
}

std::vector<Request> GenerateRequests(const DemandTrace& trace,
                                      const RequestStreamOptions& opts) {
  RequestStream stream(std::make_shared<const DemandTrace>(trace), 0, opts);
  std::vector<Request> out;
  for (; !stream.done(); stream.pop()) out.push_back(stream.peek());
  return out;
}

}  // namespace samya::workload
