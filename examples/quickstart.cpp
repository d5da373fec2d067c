// Quickstart for the hematch library: match two tiny heterogeneous event
// logs, in the spirit of the paper's running example (Fig. 1) — a source
// log with events A..F and a target log with opaque numeric names, where
// only a composite pattern disambiguates the mapping.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <iostream>

#include "core/astar_matcher.h"
#include "core/pattern_set.h"
#include "eval/runner.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"
#include "pattern/pattern_parser.h"

int main() {
  using namespace hematch;

  // --- 1. Build the two event logs. -------------------------------------
  // Traces are sequences of opaque event names; in production they would
  // come from ReadCsvLogFile / ReadTraceLogFile.
  EventLog log1;
  log1.AddTraceByNames({"A", "B", "C", "D", "E"});
  log1.AddTraceByNames({"A", "C", "B", "D", "E"});
  log1.AddTraceByNames({"A", "B", "C", "D", "F"});
  log1.AddTraceByNames({"A", "C", "B", "D", "F"});
  log1.AddTraceByNames({"A", "B", "C", "D", "E"});

  EventLog log2;  // The same process, logged by another system.
  log2.AddTraceByNames({"3", "4", "5", "6", "7"});
  log2.AddTraceByNames({"3", "5", "4", "6", "7"});
  log2.AddTraceByNames({"3", "4", "5", "6", "8"});
  log2.AddTraceByNames({"3", "5", "4", "6", "8"});
  log2.AddTraceByNames({"3", "4", "5", "6", "7"});

  // --- 2. Declare a composite pattern over log1. ------------------------
  // "B and C happen right after A, in either order, then D" — Example 4.
  Result<Pattern> pattern =
      ParsePattern("SEQ(A, AND(B, C), D)", log1.dictionary());
  if (!pattern.ok()) {
    std::cerr << "pattern error: " << pattern.status() << "\n";
    return 1;
  }

  // --- 3. Assemble the matching instance. --------------------------------
  // The framework treats dependency-graph vertices and edges as special
  // patterns and adds the composite ones on top.
  const DependencyGraph g1 = DependencyGraph::Build(log1);
  MatchingContext context(log1, log2,
                          BuildPatternSet(g1, {pattern.value()}));

  // --- 4. Run the exact matcher (A*, Pattern-Tight). ---------------------
  // Defaults: bitmap-tight bound, symmetry breaking, sound existence
  // pruning; `PaperAStarOptions` gives the paper's unreduced Algorithm 1.
  AStarMatcher matcher;
  Result<MatchResult> outcome = matcher.Match(context);
  if (!outcome.ok()) {
    std::cerr << "matching failed: " << outcome.status() << "\n";
    return 1;
  }

  const MatchResult& result = outcome.value();
  std::cout << "optimal mapping : "
            << result.mapping.ToString(&log1.dictionary(),
                                       &log2.dictionary())
            << "\n";
  std::cout << "pattern normal distance : " << result.objective << "\n";
  std::cout << "search-tree nodes visited : " << result.nodes_visited
            << ", mappings processed : " << result.mappings_processed
            << "\n";
  return 0;
}
