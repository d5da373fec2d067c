#ifndef HEMATCH_CORE_SEARCH_COMMON_H_
#define HEMATCH_CORE_SEARCH_COMMON_H_

/// \file
/// Machinery shared by the sequential exact A* (core/astar_matcher.cc)
/// and the parallel HDA*-style matcher (exec/parallel_astar.cc):
///
///  * `SearchPlan` — the fixed expansion schedule (source order,
///    per-depth completed/remaining pattern tables) both searches
///    precompute once per run.
///  * Dominance signatures — a 64-bit key identifying partial mappings
///    with identical futures, so only the best-g representative of each
///    signature class needs expanding. The same key hashes nodes to
///    HDA* worker-owned open lists, which is what makes the parallel
///    matcher's dominance tables worker-local and lock-free.
///  * Target symmetry classes — groups of interchangeable target events
///    (label swaps that are automorphisms of log2's trace multiset);
///    expansion only tries the lowest-id unused member of each class.
///  * `SearchTelemetry` — the per-method metric bundle (open-list peak,
///    bound gauges, pruning counters) registered identically by both
///    matchers so their telemetry has the same shape.
///  * `GreedyComplete` — the anytime completion both matchers run when
///    a budget trips.
///
/// Exactness notes (why the reductions never change the certified
/// optimum) are on the individual declarations.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mapping.h"
#include "core/mapping_scorer.h"
#include "core/matching_context.h"
#include "freq/inverted_index.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"

namespace hematch {

/// Toggles for the exactness-preserving search-space reductions shared
/// by the sequential and parallel exact matchers (see the declarations
/// below for why each one never changes the certified optimum). Both
/// off in a bare `SearchReductions{}`; each matcher's options struct
/// states its own defaults.
struct SearchReductions {
  /// Keep only the best-g representative per dominance signature.
  bool dominance_pruning = false;
  /// Canonical assignment order over interchangeable target classes.
  bool symmetry_breaking = false;
};

/// The fixed expansion schedule of Algorithm 1, precomputed once per
/// run: sources are decided in decreasing number-of-involving-patterns
/// order, which makes the set of patterns completing at each depth
/// static.
struct SearchPlan {
  std::size_t num_sources = 0;
  std::size_t num_targets = 0;
  /// order[d]: the source decided at depth d.
  std::vector<EventId> order;
  /// position[v]: the depth at which source v is decided.
  std::vector<std::size_t> position;
  /// completed_at[d]: patterns whose last event (in expansion order) is
  /// decided at depth d — they move from h to g there.
  std::vector<std::vector<std::uint32_t>> completed_at;
  /// remaining_after[d]: patterns still incomplete after depth d.
  std::vector<std::vector<std::uint32_t>> remaining_after;
  /// signature_sources[d]: the decided sources (subset of order[0..d))
  /// that appear in at least one pattern of remaining_after[d] —
  /// exactly the assignments a node's future gains still depend on.
  /// Ascending by id.
  std::vector<std::vector<EventId>> signature_sources;
};

/// Builds the plan for `context` (deterministic for a given context).
SearchPlan BuildSearchPlan(const MatchingContext& context);

/// Dominance signature of a partial mapping at `depth` (its decided
/// set is exactly plan.order[0..depth)). Two nodes with equal
/// signatures have identical futures: the same targets remain
/// available, and every pattern still incomplete reads only sources
/// whose assignments the signature fixes — so their reachable
/// completions score identically except for the g already banked.
/// Keeping only the best-g representative is therefore exact.
///
/// The signature hashes (a) the depth, (b) the *set* of used targets
/// (order-independently, so nodes that assigned future-irrelevant
/// sources differently still collide — that is the pruning win), and
/// (c) the exact assignment (target or ⊥) of each future-relevant
/// source. 64-bit splitmix64 mixing, same collision argument as
/// freq/pattern_key.h: ~2^-64 per pair, far below 10^-6 for any real
/// frontier.
std::uint64_t DominanceSignature(const SearchPlan& plan, std::size_t depth,
                                 const Mapping& mapping);

/// Best-g-per-signature table. Worker-local in the parallel matcher
/// (signatures are routed to their owning worker), run-local in the
/// sequential one.
class DominanceTable {
 public:
  /// True when a node with signature `sig` and value `g` is dominated
  /// (a representative with at least `g` was already admitted) — the
  /// caller prunes it. Otherwise records `g` as the class best and
  /// returns false. Ties prune: an equal-g representative already
  /// covers every completion.
  bool IsDominated(std::uint64_t sig, double g) {
    auto [it, inserted] = best_.try_emplace(sig, g);
    if (inserted) {
      return false;
    }
    if (g <= it->second) {
      return true;
    }
    it->second = g;
    return false;
  }

  /// True when `g` is strictly below the admitted best for `sig` — the
  /// pop-time staleness check (a strictly better same-future node was
  /// admitted after this one was pushed).
  bool IsStale(std::uint64_t sig, double g) const {
    const auto it = best_.find(sig);
    return it != best_.end() && g < it->second;
  }

  std::size_t size() const { return best_.size(); }

  /// Approximate resident bytes per entry (key + value + bucket slack),
  /// for governor memory accounting.
  static constexpr std::size_t kBytesPerEntry = 48;

 private:
  std::unordered_map<std::uint64_t, double> best_;
};

/// Target events whose pairwise label swaps are automorphisms of
/// log2's trace multiset, grouped into equivalence classes. Swapping
/// two same-class targets in any complete mapping yields a mapping
/// with an identical objective (every f2 is invariant under the swap),
/// so expansion may canonically try only the lowest-id unused member
/// of each class — symmetric siblings are exact duplicates.
struct TargetSymmetry {
  /// class_of[t]: class id of target t (classes are singletons for
  /// asymmetric targets).
  std::vector<std::uint32_t> class_of;
  /// members[c]: targets of class c, ascending. Size 1 for singletons.
  std::vector<std::vector<EventId>> members;
  /// Number of targets sharing a class with at least one other target.
  std::size_t interchangeable_targets = 0;

  bool any() const { return interchangeable_targets > 0; }

  /// True when `target` must be skipped at expansion: an unused
  /// smaller-id member of its class exists, and the canonical order
  /// assigns that one first.
  bool Skips(const Mapping& m, EventId target) const {
    if (!any()) {
      return false;
    }
    for (EventId t : members[class_of[target]]) {
      if (t >= target) {
        return false;
      }
      if (!m.IsTargetUsed(t)) {
        return true;
      }
    }
    return false;
  }
};

/// Computes the exact symmetry classes of `log2`; `index2` and `graph2`
/// are log2's trace index and dependency graph. Candidates are grouped
/// by their dependency-graph profile (vertex frequency plus in- and
/// out-edge frequencies), which every swap automorphism preserves, so
/// no trace is read unless two labels tie. Each candidate is then
/// verified against its class representative under the label swap. The
/// trace-multiset hash is commutative (a sum of mixed per-trace hashes),
/// so a swap (x, y) changes only the terms of traces containing x or y:
/// verification re-hashes just those, read from `index2`'s postings.
/// Pairwise verification against one representative suffices — swap
/// automorphisms conjugate: (t1 t2) = (r t1)(r t2)(r t1).
///
/// Matchers read the result through `MatchingContext::target_symmetry`,
/// which builds it once per context.
TargetSymmetry ComputeTargetSymmetry(const EventLog& log2,
                                     const TraceIndex& index2,
                                     const DependencyGraph& graph2);

/// The per-method search metrics both exact matchers register, so the
/// sequential and parallel runs export the same telemetry shape under
/// their respective slugs.
struct SearchTelemetry {
  obs::Gauge* open_list_peak = nullptr;
  obs::Gauge* best_f = nullptr;
  obs::Gauge* bound_gap = nullptr;
  obs::Histogram* expansion_depth = nullptr;
  obs::Histogram* branching_factor = nullptr;
  obs::Histogram* bound_gap_trajectory = nullptr;
  obs::Counter* prune_existence = nullptr;
  obs::Counter* prune_bound = nullptr;
  obs::Counter* prune_dominance = nullptr;
  obs::Counter* prune_symmetry = nullptr;

  static SearchTelemetry Register(obs::MetricsRegistry& metrics,
                                  const std::string& slug);

  /// The one place the open-list high-water gauge is updated (satellite
  /// of PR 9: this was previously three separate call sites).
  void RecordOpenPeak(std::size_t open_size) {
    open_list_peak->SetMax(static_cast<double>(open_size));
  }
};

/// Greedy anytime completion (the budget-tripped exit path): decides
/// every remaining source of `m` by best incremental contribution,
/// degrading to first-fit + exact rescore when `grace_ms` (measured on
/// `watch`) is exceeded. Returns the exact objective of the completed
/// mapping; `mappings_processed` is incremented per candidate tried.
/// `g` must be the exact banked objective of `m`.
double GreedyComplete(MappingScorer& scorer, const SearchPlan& plan,
                      Mapping& m, double g, const obs::Stopwatch& watch,
                      double grace_ms, std::uint64_t& mappings_processed);

}  // namespace hematch

#endif  // HEMATCH_CORE_SEARCH_COMMON_H_
