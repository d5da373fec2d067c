#include "graph/dependency_graph.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"

namespace hematch {

DependencyGraph DependencyGraph::Build(const EventLog& log) {
  const std::size_t n = log.num_events();
  std::vector<std::size_t> vertex_support(n, 0);
  std::unordered_map<std::uint64_t, std::size_t> edge_support;
  std::vector<bool> seen(n, false);
  std::unordered_set<std::uint64_t> seen_pairs;

  for (const Trace& trace : log.traces()) {
    std::fill(seen.begin(), seen.end(), false);
    seen_pairs.clear();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const EventId v = trace[i];
      if (!seen[v]) {
        seen[v] = true;
        ++vertex_support[v];
      }
      if (i + 1 < trace.size()) {
        // Count each distinct consecutive pair once per trace: frequencies
        // are "the number of traces where u v occur consecutively at least
        // once" (Definition 1).
        const std::uint64_t key = PairKey(v, trace[i + 1]);
        if (seen_pairs.insert(key).second) {
          ++edge_support[key];
        }
      }
    }
  }
  return FromSupports(log.num_traces(), vertex_support, edge_support);
}

DependencyGraph DependencyGraph::FromSupports(
    std::size_t num_traces, const std::vector<std::size_t>& vertex_support,
    const std::unordered_map<std::uint64_t, std::size_t>& edge_support) {
  DependencyGraph g;
  const std::size_t n = vertex_support.size();
  g.vertex_freq_.assign(n, 0.0);
  g.out_.assign(n, {});
  g.out_freq_.assign(n, {});
  g.in_.assign(n, {});
  g.in_freq_.assign(n, {});
  if (num_traces == 0) {
    return g;
  }
  const double inv = 1.0 / static_cast<double>(num_traces);
  for (EventId v = 0; v < n; ++v) {
    g.vertex_freq_[v] = vertex_support[v] * inv;
  }
  std::vector<std::pair<std::uint64_t, double>> edges;
  edges.reserve(edge_support.size());
  for (const auto& [key, support] : edge_support) {
    if (support == 0) {
      continue;  // Zero-frequency pairs are not edges.
    }
    HEMATCH_CHECK((key >> 32) < n && (key & 0xffffffffULL) < n,
                  "edge support references unknown events");
    edges.emplace_back(key, support * inv);
  }
  // Hash iteration order is nondeterministic; visiting the edges in
  // (u, v) order keeps the output reproducible and leaves every
  // adjacency list sorted.
  std::sort(edges.begin(), edges.end());
  g.edge_freq_.reserve(edges.size());
  g.edge_list_.reserve(edges.size());
  for (const auto& [key, frequency] : edges) {
    g.edge_freq_.emplace(key, frequency);
    const EventId u = static_cast<EventId>(key >> 32);
    const EventId v = static_cast<EventId>(key & 0xffffffffULL);
    g.out_[u].push_back(v);
    g.out_freq_[u].push_back(frequency);
    g.in_[v].push_back(u);
    g.in_freq_[v].push_back(frequency);
    g.edge_list_.emplace_back(u, v);
  }
  return g;
}

double DependencyGraph::VertexFrequency(EventId v) const {
  if (v >= vertex_freq_.size()) {
    return 0.0;
  }
  return vertex_freq_[v];
}

double DependencyGraph::EdgeFrequency(EventId u, EventId v) const {
  auto it = edge_freq_.find(PairKey(u, v));
  return it == edge_freq_.end() ? 0.0 : it->second;
}

const std::vector<EventId>& DependencyGraph::OutNeighbors(EventId u) const {
  HEMATCH_CHECK(u < out_.size(),
                "DependencyGraph::OutNeighbors vertex out of range");
  return out_[u];
}

const std::vector<EventId>& DependencyGraph::InNeighbors(EventId u) const {
  HEMATCH_CHECK(u < in_.size(),
                "DependencyGraph::InNeighbors vertex out of range");
  return in_[u];
}

const std::vector<double>& DependencyGraph::OutEdgeFrequencies(
    EventId u) const {
  HEMATCH_CHECK(u < out_freq_.size(),
                "DependencyGraph::OutEdgeFrequencies vertex out of range");
  return out_freq_[u];
}

const std::vector<double>& DependencyGraph::InEdgeFrequencies(
    EventId u) const {
  HEMATCH_CHECK(u < in_freq_.size(),
                "DependencyGraph::InEdgeFrequencies vertex out of range");
  return in_freq_[u];
}

double DependencyGraph::MaxVertexFrequency(
    const std::vector<EventId>& vertices) const {
  double best = 0.0;
  for (EventId v : vertices) {
    best = std::max(best, VertexFrequency(v));
  }
  return best;
}

double DependencyGraph::MaxInducedEdgeFrequency(
    const std::vector<EventId>& vertices) const {
  std::vector<char> in_set(num_vertices(), 0);
  for (EventId v : vertices) {
    if (v < in_set.size()) {
      in_set[v] = 1;
    }
  }
  return MaxInducedEdgeFrequency(vertices, in_set);
}

double DependencyGraph::MaxInducedEdgeFrequency(
    const std::vector<EventId>& vertices,
    const std::vector<char>& in_set) const {
  HEMATCH_DCHECK(in_set.size() >= num_vertices(), "mask too small");
  double best = 0.0;
  for (EventId u : vertices) {
    if (u >= out_.size()) continue;
    const std::vector<EventId>& neighbors = out_[u];
    const std::vector<double>& frequencies = out_freq_[u];
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (in_set[neighbors[i]] != 0) {
        best = std::max(best, frequencies[i]);
      }
    }
  }
  return best;
}

}  // namespace hematch
