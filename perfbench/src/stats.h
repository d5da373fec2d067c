#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own arithmetic: percentiles with the tail-sample
// rule, span self time, failure accounting, and the single-caller
// queue replay used for the batch workloads' rate metrics. Everything
// here is pure and covered by tests/stats_test.cc.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A latency sample of a request that failed or was refused. It sorts
/// above every real latency, so it counts as missing any limit.
inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

/// Samples that lie strictly beyond the nearest-rank `percentile`
/// (0 < percentile <= 100) of `n` samples: n - ceil(percentile/100 * n).
std::size_t SamplesBeyond(std::size_t n, double percentile);

/// Nearest-rank percentile of `values` (need not be sorted). Refuses
/// (nullopt) when fewer than `min_beyond` samples lie beyond it, so a
/// tail figure is never read off a sample too small to have a tail.
/// The median is asked for with min_beyond = 1.
std::optional<double> Percentile(std::vector<double> values,
                                 double percentile,
                                 std::size_t min_beyond = 10);

/// The highest of the standard percentiles {99.9, 99, 95, 90, 75, 50}
/// with at least 10 samples beyond it for a sample of size `n`;
/// nullopt when even the median lacks 10.
std::optional<double> HighestTailPercentile(std::size_t n);

/// One recorded span: identifier, parent (0 for roots), and interval.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double start = 0.0;
  double end = 0.0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (clipped to the span, so
/// overlapping or overhanging children are not counted twice). Result
/// is indexed like `spans`.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// How a set of requests ended. Every failure — transport error,
/// rejection, error reply, or wrong answer — counts against the
/// latency limit as well as in `failed`.
struct RequestTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One entry per attempted request; failed ones hold kFailedLatency.
  std::vector<double> latencies_ms;

  void AddSuccess(double latency_ms);
  void AddFailure();
  double FailedShare() const;
};

/// Sojourn times (wait + service) of a single FIFO caller fed
/// `service_ms[i]` at arrival times `arrival_ms[i]` (ascending): the
/// Lindley recursion. Used to turn a batch workload's measured
/// per-instance times into the latency a caller would see at a fixed
/// Poisson arrival rate.
std::vector<double> FifoSojourn(const std::vector<double>& arrival_ms,
                                const std::vector<double>& service_ms);

/// Mean of `values` (0 for an empty vector).
double Mean(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
