// Tests for the benchmark's own arithmetic (src/stats.h): the tail
// percentile rule, span self time, failure accounting, and the FIFO
// replay. Run with `ctest --test-dir .bench_build` after building
// perfbench/, or directly as .bench_build/perfbench_stats_test.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test.cc:%d: expectation failed: %s\n", line,
                 what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Deliberately unsorted.
  return v;
}

void TestTailRule() {
  using perfbench::Percentile;
  using perfbench::SamplesBeyond;
  // 100 samples: p90 is the 90th value and leaves exactly 10 beyond.
  EXPECT(SamplesBeyond(100, 90.0) == 10);
  EXPECT(Percentile(OneTo(100), 90.0).has_value());
  EXPECT(Near(*Percentile(OneTo(100), 90.0), 90.0));
  // 99 samples: rank ceil(89.1) = 90 leaves 9 beyond: refused.
  EXPECT(SamplesBeyond(99, 90.0) == 9);
  EXPECT(!Percentile(OneTo(99), 90.0).has_value());
  // p95 needs 200 samples; p99 needs 1000.
  EXPECT(!Percentile(OneTo(199), 95.0).has_value());
  EXPECT(Near(*Percentile(OneTo(200), 95.0), 190.0));
  EXPECT(!Percentile(OneTo(999), 99.0).has_value());
  EXPECT(Near(*Percentile(OneTo(1000), 99.0), 990.0));
  // The median of a small sample is allowed with min_beyond = 1.
  EXPECT(Near(*Percentile({3.0, 1.0, 2.0}, 50.0, 1), 2.0));
  EXPECT(!Percentile({}, 50.0, 1).has_value());
  // Highest standard percentile with at least 10 beyond.
  EXPECT(!perfbench::HighestTailPercentile(19).has_value());
  EXPECT(*perfbench::HighestTailPercentile(20) == 50.0);
  EXPECT(*perfbench::HighestTailPercentile(40) == 75.0);
  EXPECT(*perfbench::HighestTailPercentile(100) == 90.0);
  EXPECT(*perfbench::HighestTailPercentile(250) == 95.0);
  EXPECT(*perfbench::HighestTailPercentile(1000) == 99.0);
  EXPECT(*perfbench::HighestTailPercentile(10000) == 99.9);
}

void TestSelfTime() {
  using perfbench::Span;
  // Root [0,100] with children [10,30] and [20,50] (overlapping: the
  // union is [10,50]) and a grandchild [12,18] under the first child.
  const std::vector<Span> spans = {
      {1, 0, 0.0, 100.0},
      {2, 1, 10.0, 30.0},
      {3, 1, 20.0, 50.0},
      {4, 2, 12.0, 18.0},
  };
  const std::vector<double> self = perfbench::SelfTimes(spans);
  EXPECT(Near(self[0], 60.0));  // 100 - |[10,50]|; grandchild not counted.
  EXPECT(Near(self[1], 14.0));  // 20 - 6.
  EXPECT(Near(self[2], 30.0));
  EXPECT(Near(self[3], 6.0));
  // A child overhanging its parent is clipped to the parent.
  const std::vector<double> clipped =
      perfbench::SelfTimes({{1, 0, 0.0, 10.0}, {2, 1, 5.0, 20.0}});
  EXPECT(Near(clipped[0], 5.0));
  // Disjoint children both subtract; an unknown parent id is a root.
  const std::vector<double> disjoint = perfbench::SelfTimes(
      {{1, 0, 0.0, 10.0}, {2, 1, 1.0, 2.0}, {3, 1, 5.0, 8.0}, {4, 9, 0, 1}});
  EXPECT(Near(disjoint[0], 6.0));
  EXPECT(Near(disjoint[3], 1.0));
}

void TestFailureAccounting() {
  perfbench::RequestTally tally;
  for (int i = 1; i <= 8; ++i) tally.AddSuccess(i);  // 1..8 ms
  tally.AddFailure();                                // e.g. rejected
  tally.AddFailure();                                // e.g. wrong answer
  EXPECT(tally.attempted == 10);
  EXPECT(tally.failed == 2);
  EXPECT(Near(tally.FailedShare(), 0.2));
  // Failures sit above every real latency in the percentiles, so they
  // miss every latency limit, however generous.
  EXPECT(Near(*perfbench::Percentile(tally.latencies_ms, 80.0, 1), 8.0));
  EXPECT(std::isinf(*perfbench::Percentile(tally.latencies_ms, 90.0, 1)));
  EXPECT(Near(perfbench::RequestTally{}.FailedShare(), 0.0));
}

void TestFifoSojourn() {
  // Arrivals at 0, 1, 2 with 2 ms of service each: waits 0, 1, 2.
  const std::vector<double> s =
      perfbench::FifoSojourn({0.0, 1.0, 2.0}, {2.0, 2.0, 2.0});
  EXPECT(Near(s[0], 2.0));
  EXPECT(Near(s[1], 3.0));
  EXPECT(Near(s[2], 4.0));
  // An idle gap resets the queue.
  const std::vector<double> gap =
      perfbench::FifoSojourn({0.0, 10.0}, {2.0, 3.0});
  EXPECT(Near(gap[1], 3.0));
}

}  // namespace

int main() {
  TestTailRule();
  TestSelfTime();
  TestFailureAccounting();
  TestFifoSojourn();
  if (failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("stats_test: all expectations passed\n");
  return 0;
}
