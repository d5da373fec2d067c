#include "stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

// Nearest rank (1-based) of `percentile` in a sample of `n`.
std::size_t NearestRank(std::size_t n, double percentile) {
  const double exact = percentile / 100.0 * static_cast<double>(n);
  // Guard against 0.9 * 100 = 90.00000000000001 style round-up.
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::size_t SamplesBeyond(std::size_t n, double percentile) {
  if (n == 0) {
    return 0;
  }
  return n - NearestRank(n, percentile);
}

std::optional<double> Percentile(std::vector<double> values,
                                 double percentile, std::size_t min_beyond) {
  if (values.empty() || SamplesBeyond(values.size(), percentile) < min_beyond) {
    return std::nullopt;
  }
  const std::size_t rank = NearestRank(values.size(), percentile);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::optional<double> HighestTailPercentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (SamplesBeyond(n, p) >= 10) {
      return p;
    }
  }
  return std::nullopt;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = i;
  }
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    auto parent = index.find(s.parent);
    if (s.parent == 0 || parent == index.end()) {
      continue;
    }
    const Span& p = spans[parent->second];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) {
      children[parent->second].emplace_back(lo, hi);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -std::numeric_limits<double>::infinity();
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) {
          covered += run_hi - run_lo;
        }
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) {
      covered += run_hi - run_lo;
    }
    self[i] = std::max(0.0, (spans[i].end - spans[i].start) - covered);
  }
  return self;
}

void RequestTally::AddSuccess(double latency_ms) {
  ++attempted;
  latencies_ms.push_back(latency_ms);
}

void RequestTally::AddFailure() {
  ++attempted;
  ++failed;
  latencies_ms.push_back(kFailedLatency);
}

double RequestTally::FailedShare() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

std::vector<double> FifoSojourn(const std::vector<double>& arrival_ms,
                                const std::vector<double>& service_ms) {
  std::vector<double> sojourn(arrival_ms.size());
  double free_at = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < arrival_ms.size(); ++i) {
    const double start = std::max(arrival_ms[i], free_at);
    free_at = start + service_ms[i];
    sojourn[i] = free_at - arrival_ms[i];
  }
  return sojourn;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench
