// Tests for the event dependency graph (Definition 1): normalized vertex
// and consecutive-pair frequencies.

#include "graph/dependency_graph.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

namespace hematch {
namespace {

EventLog ExampleLog() {
  // 4 traces over {A=0, B=1, C=2}.
  EventLog log;
  log.AddTraceByNames({"A", "B", "C"});
  log.AddTraceByNames({"A", "C", "B"});
  log.AddTraceByNames({"A", "B", "A", "B"});  // AB twice in one trace.
  log.AddTraceByNames({"C"});
  return log;
}

TEST(DependencyGraphTest, VertexFrequenciesArePerTrace) {
  const DependencyGraph g = DependencyGraph::Build(ExampleLog());
  EXPECT_DOUBLE_EQ(g.VertexFrequency(0), 0.75);  // A in 3/4 traces.
  EXPECT_DOUBLE_EQ(g.VertexFrequency(1), 0.75);  // B.
  EXPECT_DOUBLE_EQ(g.VertexFrequency(2), 0.75);  // C.
}

TEST(DependencyGraphTest, EdgeFrequencyCountsTracesOnce) {
  const DependencyGraph g = DependencyGraph::Build(ExampleLog());
  // AB occurs consecutively in traces 1 and 3 (twice in 3, counted once).
  EXPECT_DOUBLE_EQ(g.EdgeFrequency(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(g.EdgeFrequency(1, 2), 0.25);  // BC in trace 1.
  EXPECT_DOUBLE_EQ(g.EdgeFrequency(0, 2), 0.25);  // AC in trace 2.
  EXPECT_DOUBLE_EQ(g.EdgeFrequency(2, 1), 0.25);  // CB in trace 2.
  EXPECT_DOUBLE_EQ(g.EdgeFrequency(1, 0), 0.25);  // BA in trace 3.
}

TEST(DependencyGraphTest, ZeroFrequencyPairsAreNotEdges) {
  const DependencyGraph g = DependencyGraph::Build(ExampleLog());
  EXPECT_FALSE(g.HasEdge(2, 0));  // CA never consecutive.
  EXPECT_DOUBLE_EQ(g.EdgeFrequency(2, 0), 0.0);
  EXPECT_EQ(g.num_edges(), 5u);
}

TEST(DependencyGraphTest, NeighborsAreSortedAndConsistent) {
  const DependencyGraph g = DependencyGraph::Build(ExampleLog());
  EXPECT_EQ(g.OutNeighbors(0), (std::vector<EventId>{1, 2}));
  EXPECT_EQ(g.InNeighbors(1), (std::vector<EventId>{0, 2}));
  for (const auto& [u, v] : g.edges()) {
    EXPECT_TRUE(g.HasEdge(u, v));
  }
}

TEST(DependencyGraphTest, SelfLoopFromRepeatedEvent) {
  EventLog log;
  log.AddTraceByNames({"A", "A", "B"});
  const DependencyGraph g = DependencyGraph::Build(log);
  EXPECT_DOUBLE_EQ(g.EdgeFrequency(0, 0), 1.0);
}

TEST(DependencyGraphTest, EmptyLog) {
  const DependencyGraph g = DependencyGraph::Build(EventLog());
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.VertexFrequency(0), 0.0);  // Out of range -> 0.
}

TEST(DependencyGraphTest, MaxVertexFrequencyOverSubset) {
  const DependencyGraph g = DependencyGraph::Build(ExampleLog());
  EXPECT_DOUBLE_EQ(g.MaxVertexFrequency({0, 1}), 0.75);
  EXPECT_DOUBLE_EQ(g.MaxVertexFrequency({}), 0.0);
}

TEST(DependencyGraphTest, MaxInducedEdgeFrequencyRespectsSubset) {
  const DependencyGraph g = DependencyGraph::Build(ExampleLog());
  // Induced on {A, B}: edges AB (0.5) and BA (0.25).
  EXPECT_DOUBLE_EQ(g.MaxInducedEdgeFrequency({0, 1}), 0.5);
  // Induced on {B, C}: BC (0.25) and CB (0.25).
  EXPECT_DOUBLE_EQ(g.MaxInducedEdgeFrequency({1, 2}), 0.25);
  // Singleton has no edges.
  EXPECT_DOUBLE_EQ(g.MaxInducedEdgeFrequency({0}), 0.0);
}

// The frequencies stored beside each adjacency list agree with
// `EdgeFrequency`, pair by pair, and every other pair (non-edges and
// out-of-range ids) reads 0.
void ExpectAdjacencyFrequenciesAgree(const DependencyGraph& g) {
  const EventId n = static_cast<EventId>(g.num_vertices());
  std::size_t stored = 0;
  for (EventId u = 0; u < n; ++u) {
    const std::vector<EventId>& out = g.OutNeighbors(u);
    ASSERT_EQ(g.OutEdgeFrequencies(u).size(), out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_GT(g.OutEdgeFrequencies(u)[i], 0.0);
      EXPECT_EQ(g.OutEdgeFrequencies(u)[i], g.EdgeFrequency(u, out[i]));
    }
    const std::vector<EventId>& in = g.InNeighbors(u);
    ASSERT_EQ(g.InEdgeFrequencies(u).size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(g.InEdgeFrequencies(u)[i], g.EdgeFrequency(in[i], u));
    }
    stored += out.size();
    for (EventId v = 0; v < n; ++v) {
      const bool edge = std::binary_search(out.begin(), out.end(), v);
      EXPECT_EQ(g.EdgeFrequency(u, v) > 0.0, edge) << u << " -> " << v;
    }
    EXPECT_EQ(g.EdgeFrequency(u, n), 0.0);
    EXPECT_EQ(g.EdgeFrequency(n, u), 0.0);
  }
  EXPECT_EQ(stored, g.num_edges());
  EXPECT_EQ(g.EdgeFrequency(n, n), 0.0);
  EXPECT_EQ(g.EdgeFrequency(n + 7, 0), 0.0);
}

TEST(DependencyGraphTest, StoredNeighborFrequenciesMatchEdgeFrequency) {
  const DependencyGraph built = DependencyGraph::Build(ExampleLog());
  ExpectAdjacencyFrequenciesAgree(built);
  EXPECT_EQ(built.OutEdgeFrequencies(0), (std::vector<double>{0.5, 0.25}));

  // 8 traces over 5 events; pair supports given directly, including a
  // zero support that must not become an edge.
  const std::vector<std::size_t> vertex_support = {8, 5, 4, 2, 0};
  const std::unordered_map<std::uint64_t, std::size_t> edge_support = {
      {(0ULL << 32) | 1, 5}, {(0ULL << 32) | 3, 1}, {(1ULL << 32) | 2, 3},
      {(2ULL << 32) | 0, 2}, {(3ULL << 32) | 3, 2}, {(2ULL << 32) | 3, 0}};
  const DependencyGraph from =
      DependencyGraph::FromSupports(8, vertex_support, edge_support);
  ExpectAdjacencyFrequenciesAgree(from);
  EXPECT_EQ(from.num_edges(), 5u);
  EXPECT_EQ(from.EdgeFrequency(0, 1), 5.0 / 8.0);
  EXPECT_EQ(from.EdgeFrequency(3, 3), 2.0 / 8.0);
  EXPECT_EQ(from.EdgeFrequency(2, 3), 0.0);
  EXPECT_EQ(from.InNeighbors(3), (std::vector<EventId>{0, 3}));
  EXPECT_EQ(from.InEdgeFrequencies(3), (std::vector<double>{0.125, 0.25}));
}

TEST(DependencyGraphTest, MaskedMaxInducedEdgeFrequencyMatchesSetForm) {
  const DependencyGraph g = DependencyGraph::Build(ExampleLog());
  const std::vector<std::vector<EventId>> subsets = {
      {}, {0}, {0, 1}, {1, 2}, {0, 2}, {2, 0, 1}};
  for (const std::vector<EventId>& subset : subsets) {
    std::vector<char> mask(g.num_vertices(), 0);
    for (EventId v : subset) {
      mask[v] = 1;
    }
    EXPECT_EQ(g.MaxInducedEdgeFrequency(subset, mask),
              g.MaxInducedEdgeFrequency(subset));
  }
}

}  // namespace
}  // namespace hematch
