#include "api/matcher_factory.h"

#include <utility>

#include "baselines/entropy_matcher.h"
#include "baselines/iterative_matcher.h"
#include "baselines/vertex_edge_matcher.h"
#include "baselines/vertex_matcher.h"
#include "common/check.h"
#include "core/heuristic_advanced_matcher.h"
#include "core/heuristic_simple_matcher.h"
#include "exec/parallel_astar.h"

namespace hematch {

namespace {

/// The Table 2 bound a sequential exact method is named after.
BoundKind SequentialBound(MatchMethod method) {
  return method == MatchMethod::kPatternSimple ? BoundKind::kSimple
                                               : BoundKind::kTight;
}

/// The Table 2 bound of an exact rung bounded by `exact` (bitmap-tight
/// refines tight). The heuristic rungs below a sequential exact rung
/// score with it.
BoundKind Table2Bound(BoundKind exact) {
  return exact == BoundKind::kSimple ? BoundKind::kSimple : BoundKind::kTight;
}

/// One matcher for `method`, configured from `spec`. With `paper`, the
/// sequential exact methods run the paper's Algorithm 1
/// (`PaperAStarOptions`) instead of the default configuration.
std::unique_ptr<Matcher> MakeRung(MatchMethod method, const MatcherSpec& spec,
                                  bool paper = false) {
  switch (method) {
    case MatchMethod::kPatternTight:
    case MatchMethod::kPatternSimple: {
      AStarOptions astar =
          paper ? PaperAStarOptions(SequentialBound(method)) : AStarOptions{};
      if (method == MatchMethod::kPatternSimple) {
        astar.scorer.bound = BoundKind::kSimple;
      }
      astar.scorer.existence = spec.scorer.existence;
      astar.scorer.partial = spec.scorer.partial;
      astar.max_expansions = spec.max_expansions;
      return std::make_unique<AStarMatcher>(astar);
    }
    case MatchMethod::kParallelAStar: {
      exec::ParallelAStarOptions parallel;
      parallel.scorer = spec.scorer;
      parallel.scorer.bound = BoundKind::kBitmapTight;
      parallel.threads = spec.search_threads;
      parallel.max_expansions = spec.max_expansions;
      return std::make_unique<exec::ParallelAStarMatcher>(parallel);
    }
    case MatchMethod::kHeuristicSimple: {
      HeuristicSimpleOptions simple;
      simple.scorer = spec.scorer;
      return std::make_unique<HeuristicSimpleMatcher>(simple);
    }
    case MatchMethod::kHeuristicAdvanced: {
      HeuristicAdvancedOptions advanced;
      advanced.scorer = spec.scorer;
      return std::make_unique<HeuristicAdvancedMatcher>(advanced);
    }
    case MatchMethod::kVertex: {
      VertexOptions vertex;
      vertex.partial = spec.scorer.partial;
      return std::make_unique<VertexMatcher>(vertex);
    }
    case MatchMethod::kVertexEdge: {
      VertexEdgeOptions vertex_edge;
      vertex_edge.max_expansions = spec.max_expansions;
      vertex_edge.partial = spec.scorer.partial;
      return std::make_unique<VertexEdgeMatcher>(vertex_edge);
    }
    case MatchMethod::kIterative:
      return std::make_unique<IterativeMatcher>();
    case MatchMethod::kEntropy:
      return std::make_unique<EntropyMatcher>();
  }
  return nullptr;
}

/// `exact` followed by the heuristic rungs, which run with
/// `heuristic_scorer`, minus the first `shed_level` rungs.
std::unique_ptr<FallbackMatcher> Ladder(std::unique_ptr<Matcher> exact,
                                        const ScorerOptions& heuristic_scorer,
                                        int shed_level,
                                        FallbackOptions fallback) {
  MatcherSpec heuristics;
  heuristics.scorer = heuristic_scorer;
  std::vector<std::unique_ptr<Matcher>> rungs;
  if (shed_level <= 0) {
    rungs.push_back(std::move(exact));
  }
  if (shed_level <= 1) {
    rungs.push_back(MakeRung(MatchMethod::kHeuristicAdvanced, heuristics));
  }
  rungs.push_back(MakeRung(MatchMethod::kHeuristicSimple, heuristics));
  return std::make_unique<FallbackMatcher>(std::move(rungs),
                                           std::move(fallback));
}

}  // namespace

bool IsExactMethod(MatchMethod method) {
  return method == MatchMethod::kPatternTight ||
         method == MatchMethod::kPatternSimple ||
         method == MatchMethod::kParallelAStar;
}

std::vector<MatchMethod> MethodsNamed(std::string_view name) {
  std::vector<MatchMethod> methods;
  for (const MethodName& entry : kMethodNames) {
    if (name == kAllMethodsName || name == entry.name) {
      methods.push_back(entry.method);
    }
  }
  return methods;
}

std::unique_ptr<Matcher> MakeMatcher(const MatcherSpec& spec,
                                     const exec::RunBudget& budget,
                                     const exec::CancelToken* cancel) {
  if (!IsExactMethod(spec.method) || !spec.degrade) {
    return MakeRung(spec.method, spec);
  }
  // Below a sequential rung the heuristics score with its Table 2
  // bound, as in `MakeExactLadder`; below the parallel rung they keep
  // the caller's.
  ScorerOptions heuristic_scorer = spec.scorer;
  if (spec.method != MatchMethod::kParallelAStar) {
    heuristic_scorer.bound = SequentialBound(spec.method);
  }
  FallbackOptions fallback;
  fallback.budget = budget;
  fallback.cancel = cancel;
  return Ladder(MakeRung(spec.method, spec), heuristic_scorer,
                spec.shed_level, std::move(fallback));
}

std::vector<exec::PortfolioStrategy> MakeRaceCard(const MatcherSpec& spec) {
  HEMATCH_CHECK(IsExactMethod(spec.method),
                "a race card needs an exact method");
  std::vector<MatchMethod> card = {spec.method};
  if (spec.method == MatchMethod::kParallelAStar) {
    card.push_back(MatchMethod::kPatternTight);
  }
  card.push_back(MatchMethod::kHeuristicAdvanced);
  card.push_back(MatchMethod::kHeuristicSimple);
  std::vector<exec::PortfolioStrategy> strategies;
  for (MatchMethod method : card) {
    std::unique_ptr<Matcher> matcher = MakeRung(method, spec);
    strategies.push_back({matcher->name(), std::move(matcher)});
  }
  return strategies;
}

std::unique_ptr<Matcher> MakePaperMatcher(const MatcherSpec& spec) {
  return MakeRung(spec.method, spec, /*paper=*/true);
}

std::unique_ptr<FallbackMatcher> MakeExactLadder(const AStarOptions& astar,
                                                 FallbackOptions fallback) {
  ScorerOptions heuristic_scorer = astar.scorer;
  heuristic_scorer.bound = Table2Bound(astar.scorer.bound);
  return Ladder(std::make_unique<AStarMatcher>(astar), heuristic_scorer, 0,
                std::move(fallback));
}

}  // namespace hematch
