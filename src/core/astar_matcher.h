#ifndef HEMATCH_CORE_ASTAR_MATCHER_H_
#define HEMATCH_CORE_ASTAR_MATCHER_H_

#include <cstdint>
#include <string>

#include "core/mapping_scorer.h"
#include "core/matcher.h"
#include "core/search_common.h"

namespace hematch {

/// Options for the exact A* matcher. The defaults are the fast,
/// exactness-preserving configuration every caller gets unless it asks
/// otherwise: the bitmap-tight bound plus symmetry breaking. They
/// certify the same optimum as the paper's Algorithm 1, which
/// `PaperAStarOptions` configures.
struct AStarOptions {
  /// Bound kind (see core/bounding.h) and existence pruning.
  ScorerOptions scorer{BoundKind::kBitmapTight,
                       ExistenceCheckMode::kLinearization,
                       PartialMappingOptions{}};

  /// Exactness-preserving search-space reductions (core/search_common.h).
  /// Symmetry breaking is on; dominance pruning is off, because on the
  /// measured workloads its table costs more than it prunes (see
  /// docs/PERFORMANCE.md).
  SearchReductions reductions{.dominance_pruning = false,
                              .symmetry_breaking = true};

  /// Budget on processed child mappings `M'` (Line 7 of Algorithm 1).
  /// When exceeded, Match returns an *anytime* result: the best partial
  /// mapping greedily completed, `termination == kExpansionCap`, and
  /// certified lower/upper bounds on the true optimum — the condition
  /// the paper reports as the exact method "cannot return results".
  /// The context's ExecutionGovernor (deadline / expansion / memory /
  /// cancellation budgets) triggers the same anytime path.
  std::uint64_t max_expansions = 50'000'000;

  /// Emit one `SearchProgress` sample to the context's tracer every this
  /// many node pops (an "expansion epoch"). Ignored when no tracer is
  /// installed; the per-pop cost is then a single pointer compare.
  std::uint64_t progress_interval = 8192;

  /// Optional display-name override (the Vertex / Vertex+Edge baselines
  /// set it when instantiating the framework with special pattern sets).
  /// Without it the name follows the method, not the bound:
  /// "Pattern-Simple" for the simple bound, "Pattern-Tight" for the
  /// tight and bitmap-tight bounds.
  std::string name_override;
};

/// Algorithm 1 as the paper runs it: Table 2's `bound` (kSimple or
/// kTight) with every reduction off. It certifies the same optimum as
/// the defaults but processes the paper's mapping counts, so the figure
/// and table benches reproduce the paper with it.
AStarOptions PaperAStarOptions(BoundKind bound);

/// The exact event matcher of Section 3: best-first (A*) search over
/// partial mappings (Algorithm 1).
///
/// Each search-tree node is a partial mapping `(M, U1, U2)` valued by
/// `g(M) + h(M)`; the node with the largest upper bound is expanded by
/// mapping the next source event — chosen once, globally, in decreasing
/// number-of-involving-patterns order ("we select a vertex which is
/// included by most of the patterns") — to every remaining target. The
/// first complete mapping popped is optimal because `h` never
/// underestimates the remaining contribution.
///
/// Implementation notes:
///  * `g` is computed incrementally (Section 3.2): the fixed expansion
///    order makes the set of patterns completed at each depth static, so
///    each child evaluates only the newly completed patterns, finding
///    their `f2` via Proposition-3 pruning + the memoized, trace-indexed
///    frequency evaluator.
///  * `h` sums `Δ(p, M(V(p) \ U1) ∪ U2)` over the statically-known
///    remaining patterns (Section 3.3 simple bound or Algorithm 2 tight
///    bound).
///
/// Requires |V1| <= |V2| (swap the logs otherwise); with |V1| < |V2| the
/// mapping is injective and some targets stay unmatched, exactly as in
/// the paper's Kuhn-Munkres padding argument.
class AStarMatcher : public Matcher {
 public:
  explicit AStarMatcher(AStarOptions options = {});

  std::string name() const override;
  Result<MatchResult> Match(MatchingContext& context) const override;

  const AStarOptions& options() const { return options_; }

 private:
  AStarOptions options_;
};

}  // namespace hematch

#endif  // HEMATCH_CORE_ASTAR_MATCHER_H_
