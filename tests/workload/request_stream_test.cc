#include "workload/request_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "workload/azure_generator.h"
#include "workload/transform.h"

namespace samya::workload {
namespace {

DemandTrace TinyTrace() {
  std::vector<DemandInterval> data = {{5, 2}, {3, 4}};
  return DemandTrace(Seconds(5), std::move(data));
}

TEST(RequestStreamTest, CountsMatchTrace) {
  auto reqs = GenerateRequests(TinyTrace(), {});
  int64_t acquires = 0, releases = 0, reads = 0;
  for (const auto& r : reqs) {
    if (r.type == Request::Type::kAcquire) ++acquires;
    if (r.type == Request::Type::kRelease) ++releases;
    if (r.type == Request::Type::kRead) ++reads;
    EXPECT_EQ(r.amount, 1);
  }
  EXPECT_EQ(acquires, 8);
  EXPECT_EQ(releases, 6);
  EXPECT_EQ(reads, 0);
}

TEST(RequestStreamTest, TimesWithinIntervalsAndSorted) {
  auto reqs = GenerateRequests(TinyTrace(), {});
  SimTime prev = 0;
  for (const auto& r : reqs) {
    EXPECT_GE(r.at, prev);
    EXPECT_LT(r.at, Seconds(10));
    prev = r.at;
  }
}

TEST(RequestStreamTest, HorizonCapsGeneration) {
  RequestStreamOptions opts;
  opts.horizon = Seconds(5);
  auto reqs = GenerateRequests(TinyTrace(), opts);
  for (const auto& r : reqs) EXPECT_LT(r.at, Seconds(5));
  // Only interval 0's requests remain.
  EXPECT_EQ(reqs.size(), 7u);
}

TEST(RequestStreamTest, ReadRatioApproximatelyHonored) {
  AzureTraceOptions o;
  o.days = 2;
  auto trace = CompressTime(GenerateAzureTrace(o), 60);
  RequestStreamOptions opts;
  opts.read_ratio = 0.5;
  auto reqs = GenerateRequests(trace, opts);
  int64_t reads = 0;
  for (const auto& r : reqs) reads += (r.type == Request::Type::kRead);
  const double frac =
      static_cast<double>(reads) / static_cast<double>(reqs.size());
  EXPECT_NEAR(frac, 0.5, 0.02);
}

TEST(RequestStreamTest, DeterministicBySeed) {
  auto a = GenerateRequests(TinyTrace(), {});
  auto b = GenerateRequests(TinyTrace(), {});
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(static_cast<int>(a[i].type), static_cast<int>(b[i].type));
  }
}

TEST(RequestStreamTest, CompressedHourHasPaperScaleVolume) {
  // §5.3: one compressed hour (60 original hours) yields ~820k transactions
  // across 5 regions, i.e. ~164k for one region.
  auto trace = CompressTime(GenerateAzureTrace({}), 60);
  RequestStreamOptions opts;
  opts.horizon = kHour;
  auto reqs = GenerateRequests(trace, opts);
  EXPECT_GT(reqs.size(), 80000u);
  EXPECT_LT(reqs.size(), 400000u);
}

/// The script as it was built before streaming: every interval's requests
/// pushed into one vector (same draws), then the whole vector stably sorted.
std::vector<Request> MaterializedReference(const DemandTrace& trace,
                                           const RequestStreamOptions& opts) {
  Rng rng(opts.seed);
  std::vector<Request> out;
  const Duration iv = trace.interval();
  for (size_t i = 0; i < trace.size(); ++i) {
    const SimTime start = static_cast<SimTime>(i) * iv;
    if (opts.horizon > 0 && start >= opts.horizon) break;
    auto emit = [&](Request::Type type, int64_t count) {
      for (int64_t k = 0; k < count; ++k) {
        const SimTime at = start + rng.UniformInt(0, iv - 1);
        if (opts.horizon > 0 && at >= opts.horizon) continue;
        out.push_back({at, type, 1});
      }
    };
    emit(Request::Type::kAcquire, trace.at(i).creations);
    emit(Request::Type::kRelease, trace.at(i).deletions);
    if (opts.read_ratio > 0) {
      const int64_t writes = trace.at(i).creations + trace.at(i).deletions;
      emit(Request::Type::kRead,
           rng.Poisson(opts.read_ratio / (1 - opts.read_ratio) *
                       static_cast<double>(writes)));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Request& a, const Request& b) {
                     return a.at < b.at;
                   });
  return out;
}

void ExpectSameRequests(const std::vector<Request>& a,
                        const std::vector<Request>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].at, b[i].at) << i;
    ASSERT_EQ(a[i].type, b[i].type) << i;
    ASSERT_EQ(a[i].amount, b[i].amount) << i;
  }
}

TEST(RequestStreamTest, StreamMatchesMaterialized) {
  AzureTraceOptions o;
  o.days = 2;
  auto trace = std::make_shared<const DemandTrace>(
      CompressTime(GenerateAzureTrace(o), 60));
  RequestStreamOptions opts;
  opts.read_ratio = 0.2;
  opts.horizon = Minutes(30);
  opts.seed = 11;
  const Duration iv = trace->interval();
  // No shift, and a shift that is not a whole number of intervals.
  for (const Duration shift : {Duration{0}, iv * 288 * 3 / 5}) {
    SCOPED_TRACE(shift);
    const DemandTrace shifted = PhaseShift(*trace, shift);
    const std::vector<Request> want = MaterializedReference(shifted, opts);
    ASSERT_GT(want.size(), 10000u);
    ExpectSameRequests(GenerateRequests(shifted, opts), want);

    // Requests per interval in the reference, to bound the stream's buffer.
    std::vector<size_t> per_interval(trace->size(), 0);
    for (const Request& r : want) {
      ++per_interval[static_cast<size_t>(r.at / iv)];
    }

    RequestStream stream(trace, shift, opts);
    std::vector<Request> got;
    for (; !stream.done(); stream.pop()) {
      const Request& next = stream.peek();
      // Never more than the interval being played is buffered.
      ASSERT_LE(stream.buffered(),
                per_interval[static_cast<size_t>(next.at / iv)]);
      got.push_back(next);
    }
    ExpectSameRequests(got, want);
  }
}

TEST(RequestStreamTest, EqualTimestampsKeepGenerationOrder) {
  // A 1 us interval leaves every draw the same instant: each interval is
  // one tie group, which must come out acquires, releases, reads.
  std::vector<DemandInterval> data;
  for (int i = 0; i < 50; ++i) data.push_back({3 + i % 4, 2 + i % 3});
  auto trace = std::make_shared<const DemandTrace>(Micros(1), data);
  RequestStreamOptions opts;
  opts.read_ratio = 0.4;
  RequestStream stream(trace, 0, opts);
  std::vector<Request> got;
  for (; !stream.done(); stream.pop()) got.push_back(stream.peek());

  int64_t reads = 0;
  size_t idx = 0;
  for (int i = 0; i < 50; ++i) {
    std::vector<Request::Type> types;
    for (; idx < got.size() && got[idx].at == i; ++idx) {
      types.push_back(got[idx].type);
    }
    EXPECT_TRUE(std::is_sorted(types.begin(), types.end())) << i;
    const auto count = [&](Request::Type t) {
      return std::count(types.begin(), types.end(), t);
    };
    EXPECT_EQ(count(Request::Type::kAcquire), data[i].creations) << i;
    EXPECT_EQ(count(Request::Type::kRelease), data[i].deletions) << i;
    reads += count(Request::Type::kRead);
  }
  EXPECT_EQ(idx, got.size());
  EXPECT_GT(reads, 0);
}

TEST(RequestStreamTest, FixedScriptPlaysAsGivenAndStops) {
  RequestStream stream(std::vector<Request>{
      {Seconds(2), Request::Type::kAcquire, 1},
      {Seconds(1), Request::Type::kRelease, 3}});
  ASSERT_FALSE(stream.done());
  EXPECT_EQ(stream.peek().at, Seconds(2));
  stream.pop();
  EXPECT_EQ(stream.peek().amount, 3);
  stream.Stop();
  EXPECT_TRUE(stream.done());

  auto trace = std::make_shared<const DemandTrace>(TinyTrace());
  RequestStream generated(trace, 0, {});
  ASSERT_FALSE(generated.done());
  generated.Stop();
  EXPECT_TRUE(generated.done());
  EXPECT_EQ(generated.buffered(), 0u);
}

}  // namespace
}  // namespace samya::workload
