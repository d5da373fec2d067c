#ifndef HEMATCH_API_MATCHER_FACTORY_H_
#define HEMATCH_API_MATCHER_FACTORY_H_

/// \file
/// The one place a method becomes a matcher.
///
/// The paper has one exact matcher (Algorithm 1) and one heuristic
/// (Algorithms 3 and 4) for when the exact search "cannot return
/// results". hematch chains them: the exact rung (Pattern-Tight,
/// Pattern-Simple, or Pattern-Parallel), then Heuristic-Advanced, then
/// Heuristic-Simple. This module alone knows which exact rung a method
/// picks, how the chain is laddered (`FallbackMatcher`) or raced
/// (`exec::PortfolioRunner`), and how the ladder is wired to the run's
/// budget and cancel token. The facade (`MatchLogs`), the server, the
/// CLI, the noise sweep, and the bench harnesses all build through it.

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "api/fallback_matcher.h"
#include "core/astar_matcher.h"
#include "core/mapping_scorer.h"
#include "core/matcher.h"
#include "exec/budget.h"
#include "exec/portfolio.h"

namespace hematch {

/// Which matching algorithm to build.
enum class MatchMethod : std::uint8_t {
  kPatternTight,        ///< Exact A*, `AStarOptions` defaults (default).
  kPatternSimple,       ///< Exact A*, simple bound.
  kParallelAStar,       ///< Parallel exact A* (HDA*), bitmap-tight bound.
  kHeuristicSimple,     ///< Greedy expansion.
  kHeuristicAdvanced,   ///< Algorithms 3 & 4.
  kVertex,              ///< Kang & Naughton, vertex form.
  kVertexEdge,          ///< Kang & Naughton, vertex+edge form.
  kIterative,           ///< Nejati et al., similarity propagation.
  kEntropy,             ///< Entropy-only features.
};

/// The exact methods: the ones with a ladder and a race card.
bool IsExactMethod(MatchMethod method);

/// A method's command-line spelling.
struct MethodName {
  std::string_view name;
  MatchMethod method;
};

/// Every method under its `--method` name, in the order `--method all`
/// runs them.
inline constexpr MethodName kMethodNames[] = {
    {"pattern-tight", MatchMethod::kPatternTight},
    {"pattern-simple", MatchMethod::kPatternSimple},
    {"pattern-parallel", MatchMethod::kParallelAStar},
    {"heuristic-simple", MatchMethod::kHeuristicSimple},
    {"heuristic-advanced", MatchMethod::kHeuristicAdvanced},
    {"vertex", MatchMethod::kVertex},
    {"vertex-edge", MatchMethod::kVertexEdge},
    {"iterative", MatchMethod::kIterative},
    {"entropy", MatchMethod::kEntropy},
};

/// The `--method` value that selects every row of `kMethodNames`.
inline constexpr std::string_view kAllMethodsName = "all";

/// The methods `name` selects: one for a `kMethodNames` entry, all of
/// them for `kAllMethodsName`, none for anything else.
std::vector<MatchMethod> MethodsNamed(std::string_view name);

/// What to build.
struct MatcherSpec {
  MatchMethod method = MatchMethod::kPatternTight;
  /// Existence check and partial mappings for every rung. The exact
  /// rung's bound and reductions come from the method: Pattern-Tight
  /// runs the `AStarOptions` defaults (bitmap-tight bound, symmetry
  /// breaking), Pattern-Simple the same with the simple bound, and
  /// Pattern-Parallel the `ParallelAStarOptions` defaults.
  ScorerOptions scorer;
  /// Expansion cap of the exact rung and of Vertex+Edge's search.
  std::uint64_t max_expansions = 50'000'000;
  /// Pattern-Parallel's worker threads (0 = hardware concurrency).
  int search_threads = 0;
  /// Exact methods only: run the exact rung inside the exact →
  /// advanced → simple ladder, degrading when its budget trips. Off,
  /// the exact rung runs alone and returns its own anytime result.
  bool degrade = true;
  /// Rungs the ladder skips under load: 1 starts it at the advanced
  /// heuristic, 2 at the simple one. Only meaningful with `degrade`.
  int shed_level = 0;
};

/// Builds `spec`'s matcher. Heuristic and baseline methods come back
/// bare. An exact method comes back bare without `degrade`, and
/// otherwise as the ladder, which re-arms the context's governor for
/// each rung with what is left of `budget` and with `cancel`.
///
/// `cancel` is the run's cancel token and must outlive the matcher; a
/// ladder given nullptr cannot be interrupted, so pass nullptr only for
/// runs that nothing cancels. Returns null for an out-of-range method.
std::unique_ptr<Matcher> MakeMatcher(const MatcherSpec& spec,
                                     const exec::RunBudget& budget,
                                     const exec::CancelToken* cancel);

/// The portfolio race card for an exact method: the same exact →
/// advanced → simple chain, one strategy per rung, to be raced instead
/// of laddered. Pattern-Parallel keeps a sequential Pattern-Tight entry
/// behind it as a hedge. `degrade` and `shed_level` do not apply.
std::vector<exec::PortfolioStrategy> MakeRaceCard(const MatcherSpec& spec);

/// `spec`'s bare matcher (no ladder) as the paper runs it: Pattern-Tight
/// and Pattern-Simple use `PaperAStarOptions`, every other method is
/// built as `MakeMatcher` builds it bare. The figure, table and
/// ablation benches use it to reproduce the paper's mapping counts.
std::unique_ptr<Matcher> MakePaperMatcher(const MatcherSpec& spec);

/// The ladder behind an explicitly configured A* rung; the heuristics
/// share its scorer options and score with its Table 2 bound, as in
/// `MakeMatcher`. `FallbackMatcher::
/// ExactWithHeuristicFallbacks` is this function.
std::unique_ptr<FallbackMatcher> MakeExactLadder(const AStarOptions& astar,
                                                 FallbackOptions fallback);

}  // namespace hematch

#endif  // HEMATCH_API_MATCHER_FACTORY_H_
