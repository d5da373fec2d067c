#ifndef HEMATCH_TESTS_PARTIAL_ORACLE_H_
#define HEMATCH_TESTS_PARTIAL_ORACLE_H_

// The brute-force reference the exact matchers are checked against.

#include <functional>
#include <limits>

#include "core/mapping.h"
#include "core/mapping_scorer.h"
#include "core/matching_context.h"

namespace hematch {

// Exhaustive reference: maximum partial-objective score over ALL
// partial injective mappings (every source maps to an unused target or
// to ⊥). ComputeG on a fully-decided mapping is exactly the partial
// objective: dead patterns contribute 0 and each ⊥ costs the penalty.
inline double BruteForcePartialOptimum(MatchingContext& ctx, double penalty) {
  ScorerOptions options;
  options.partial.unmapped_penalty = penalty;
  MappingScorer scorer(ctx, options);
  const std::size_t n1 = ctx.num_sources();
  const std::size_t n2 = ctx.num_targets();
  double best = -std::numeric_limits<double>::infinity();
  Mapping m(n1, n2);
  std::function<void(EventId)> extend = [&](EventId v) {
    if (v == n1) {
      const double score = scorer.ComputeG(m);
      if (score > best) {
        best = score;
      }
      return;
    }
    if (penalty < std::numeric_limits<double>::infinity()) {
      m.SetUnmapped(v);
      extend(v + 1);
      m.ClearUnmapped(v);
    }
    for (EventId t = 0; t < n2; ++t) {
      if (m.IsTargetUsed(t)) {
        continue;
      }
      m.Set(v, t);
      extend(v + 1);
      m.Erase(v);
    }
  };
  extend(0);
  return best;
}

}  // namespace hematch

#endif  // HEMATCH_TESTS_PARTIAL_ORACLE_H_
