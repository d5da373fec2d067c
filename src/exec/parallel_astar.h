#ifndef HEMATCH_EXEC_PARALLEL_ASTAR_H_
#define HEMATCH_EXEC_PARALLEL_ASTAR_H_

/// \file
/// Parallel exact A* in the HDA* (hash-distributed A*) style, plus the
/// exactness-preserving reductions of core/search_common.h enabled by
/// default.
///
/// Shape of the search (Kishimoto et al.'s HDA*, adapted to the
/// max-objective A* of Section 3):
///
///  * Every worker owns a private open list (max-heap on f) and a
///    private dominance table. Nothing on the expansion hot path takes
///    a lock.
///  * A generated child is *routed* by hashing its dominance signature:
///    `owner = hash(sig) % threads`. All nodes with identical futures
///    land on the same worker, which is what keeps the dominance
///    tables worker-local — the signature class's best-g bookkeeping
///    never needs cross-thread synchronization.
///  * Hand-off goes through bounded mailboxes (mutex-guarded; the
///    mutex guards a queue touched for microseconds, never a search).
///    When a mailbox is full the sender keeps the child locally,
///    flagged *foreign*: a foreign node skips the local dominance
///    table (it belongs to another worker's class space). Skipping
///    dominance is always sound — dominance only ever removes work.
///  * Idle workers steal from sibling mailboxes (inboxes only; open
///    lists stay single-owner). Stolen nodes are foreign by the same
///    rule.
///  * Complete mappings never enter a queue: the generating worker
///    folds them into the global incumbent (atomic max on the
///    objective; the mapping itself behind a mutex, tie-broken by
///    `Mapping::LexCompare` so equal-objective runs converge on the
///    same canonical mapping). Frontier nodes with `f <= incumbent`
///    are pruned — in a max-search the incumbent is an achieved lower
///    bound, so nothing above it is ever lost.
///  * Termination: a global atomic counts nodes alive in any open list
///    or mailbox. Children are registered before their parent retires,
///    so the counter can only reach zero when every reachable node was
///    expanded or soundly pruned — at that point the incumbent *is*
///    the optimum and the result is certified exactly like the
///    sequential matcher's (`kCompleted`, lower == upper).
///
/// Budgets: the ExecutionGovernor is not thread-safe, so workers never
/// touch it. They publish work counts through atomics; the main thread
/// polls, charges the governor, and raises a stop flag when a limit
/// trips (or a HEMATCH_FAULT_* crash fault throws — after joining the
/// workers). The anytime exit mirrors the sequential matcher: best
/// frontier node greedily completed, certified `[lower, upper]`
/// bracket from the surviving frontier, same TerminationReason
/// contract.

#include <cstdint>
#include <string>

#include "core/mapping_scorer.h"
#include "core/matcher.h"
#include "core/search_common.h"

namespace hematch::exec {

/// Options for the parallel exact matcher. Defaults: the bitmap-tight
/// bound and both reductions, each exactness-preserving. Unlike the
/// sequential default it keeps dominance pruning on: the worker-local
/// dominance tables are part of the HDA* design above.
struct ParallelAStarOptions {
  /// Bound kind and existence pruning. Defaults to the bitmap-tight
  /// bound (pairwise co-occurrence ceilings, see freq/cooccurrence.h).
  ScorerOptions scorer{BoundKind::kBitmapTight,
                       ExistenceCheckMode::kLinearization,
                       PartialMappingOptions{}};

  /// Dominance pruning + symmetry breaking (core/search_common.h).
  SearchReductions reductions{true, true};

  /// Worker threads. 0 = hardware concurrency (min 1). 1 is a valid
  /// degenerate mode (single worker, no hand-offs) used by the
  /// differential tests.
  int threads = 0;

  /// Capacity of each worker's inbox. A full inbox never blocks or
  /// drops: the sender keeps the child locally as a foreign node.
  std::size_t mailbox_capacity = 4096;

  /// Budget on processed child mappings, same meaning as
  /// `AStarOptions::max_expansions` (checked against the global
  /// atomic, so the cap is race-wide, not per worker).
  std::uint64_t max_expansions = 50'000'000;

  /// Optional display-name override (default "Pattern-Parallel").
  std::string name_override;
};

/// The parallel exact event matcher. Same contract as `AStarMatcher`:
/// requires |V1| <= |V2| unless partial mappings are enabled, returns
/// certified bounds, anytime under any budget.
class ParallelAStarMatcher : public Matcher {
 public:
  explicit ParallelAStarMatcher(ParallelAStarOptions options = {});

  std::string name() const override;
  Result<MatchResult> Match(MatchingContext& context) const override;

  const ParallelAStarOptions& options() const { return options_; }

 private:
  ParallelAStarOptions options_;
};

}  // namespace hematch::exec

#endif  // HEMATCH_EXEC_PARALLEL_ASTAR_H_
