#ifndef HEMATCH_GRAPH_DEPENDENCY_GRAPH_H_
#define HEMATCH_GRAPH_DEPENDENCY_GRAPH_H_

#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "log/event_log.h"

namespace hematch {

/// The event dependency graph of an event log (Definition 1).
///
/// Vertices are the log's events. The labeling function `f` assigns:
///  * `f(v, v)`   — the fraction of traces containing event `v`;
///  * `f(u, v)`   — the fraction of traces in which `u` is immediately
///                  followed by `v` at least once.
/// Pairs that never occur consecutively carry frequency 0 and are not
/// edges of the graph ("we ignore those edges with frequency 0").
class DependencyGraph {
 public:
  /// Builds the dependency graph of `log` in one pass
  /// (O(total log length)).
  static DependencyGraph Build(const EventLog& log);

  /// Builds a graph directly from per-trace supports: `vertex_support[v]`
  /// traces contain `v`; `edge_support[(u << 32) | v]` traces contain the
  /// consecutive pair `u v`. Used by the incremental maintenance path.
  static DependencyGraph FromSupports(
      std::size_t num_traces, const std::vector<std::size_t>& vertex_support,
      const std::unordered_map<std::uint64_t, std::size_t>& edge_support);

  /// Number of events (vertices).
  std::size_t num_vertices() const { return vertex_freq_.size(); }
  /// Number of edges with non-zero frequency.
  std::size_t num_edges() const { return edge_list_.size(); }

  /// Normalized frequency of event `v` (0 for out-of-range ids).
  double VertexFrequency(EventId v) const;

  /// Normalized frequency of the consecutive pair `u v` (0 when absent).
  double EdgeFrequency(EventId u, EventId v) const;

  /// True when `u v` occurs consecutively in at least one trace.
  bool HasEdge(EventId u, EventId v) const {
    return EdgeFrequency(u, v) > 0.0;
  }

  /// Successors of `u` (targets of positive-frequency edges).
  const std::vector<EventId>& OutNeighbors(EventId u) const;

  /// Predecessors of `u` (sources of positive-frequency edges).
  const std::vector<EventId>& InNeighbors(EventId u) const;

  /// `EdgeFrequency(u, OutNeighbors(u)[i])` at index `i`.
  const std::vector<double>& OutEdgeFrequencies(EventId u) const;

  /// `EdgeFrequency(InNeighbors(u)[i], u)` at index `i`.
  const std::vector<double>& InEdgeFrequencies(EventId u) const;

  /// All edges as (source, target) pairs.
  const std::vector<std::pair<EventId, EventId>>& edges() const {
    return edge_list_;
  }

  /// Largest vertex frequency among `vertices` (0 if the set is empty).
  double MaxVertexFrequency(const std::vector<EventId>& vertices) const;

  /// Largest edge frequency within the subgraph induced by `vertices`
  /// (0 if that subgraph has no edges). Used by the tight bound of
  /// Algorithm 2, where `vertices` is the unmapped-event set `U2`.
  double MaxInducedEdgeFrequency(const std::vector<EventId>& vertices) const;

  /// The same with a caller-owned membership mask: `in_set[v] != 0`
  /// exactly for the members of `vertices`, and `in_set` covers every
  /// vertex. Allocates nothing.
  double MaxInducedEdgeFrequency(const std::vector<EventId>& vertices,
                                 const std::vector<char>& in_set) const;

 private:
  DependencyGraph() = default;

  static std::uint64_t PairKey(EventId u, EventId v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  std::vector<double> vertex_freq_;
  // Point lookups by pair key. A binary search of the sorted adjacency
  // costs up to 5x a lookup here once out-degrees reach the tens.
  std::unordered_map<std::uint64_t, double> edge_freq_;
  // Sorted adjacency; `out_freq_[u][i]` is the frequency of the edge
  // `u -> out_[u][i]`, `in_freq_[v][i]` that of `in_[v][i] -> v`.
  std::vector<std::vector<EventId>> out_;
  std::vector<std::vector<double>> out_freq_;
  std::vector<std::vector<EventId>> in_;
  std::vector<std::vector<double>> in_freq_;
  std::vector<std::pair<EventId, EventId>> edge_list_;
};

}  // namespace hematch

#endif  // HEMATCH_GRAPH_DEPENDENCY_GRAPH_H_
