// ERP log integration scenario: two departments of a manufacturer run the
// "same" order-processing workflow in separate systems with independent,
// opaque event encodings. This example generates both logs (simulating
// the paper's real dataset), runs every matcher in the library on the
// instance, and compares their mappings against the ground truth.
//
//   ./build/examples/erp_integration

#include <iostream>

#include "baselines/entropy_matcher.h"
#include "baselines/iterative_matcher.h"
#include "baselines/vertex_edge_matcher.h"
#include "baselines/vertex_matcher.h"
#include "core/astar_matcher.h"
#include "core/heuristic_advanced_matcher.h"
#include "core/heuristic_simple_matcher.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "gen/bus_process.h"

int main() {
  using namespace hematch;

  // Simulate the two departments' event logs (3,000 traces, 11 events
  // each, ground truth known by construction).
  BusProcessOptions options;
  const MatchingTask task = MakeBusManufacturerTask(options);
  std::cout << "Task: " << task.name << "\n"
            << "  L1: " << task.log1.num_traces() << " traces over "
            << task.log1.num_events() << " events\n"
            << "  L2: " << task.log2.num_traces() << " traces over "
            << task.log2.num_events() << " events\n"
            << "  complex patterns: " << task.complex_patterns.size() << "\n";
  for (const Pattern& p : task.complex_patterns) {
    std::cout << "    " << p.ToString(&task.log1.dictionary()) << "\n";
  }
  std::cout << "  ground truth: "
            << task.ground_truth.ToString(&task.log1.dictionary(),
                                          &task.log2.dictionary())
            << "\n\n";

  const AStarMatcher pattern_tight;      // Exact, bitmap-tight bound.
  const HeuristicSimpleMatcher simple;   // Greedy expansion.
  const HeuristicAdvancedMatcher advanced;  // Algorithms 3 & 4.
  const VertexMatcher vertex;
  const VertexEdgeMatcher vertex_edge;
  const IterativeMatcher iterative;
  const EntropyMatcher entropy;
  const Matcher* matchers[] = {&pattern_tight, &simple, &advanced,
                               &vertex,        &vertex_edge, &iterative,
                               &entropy};

  TextTable table({"method", "F-measure", "precision", "recall",
                   "time(ms)", "mapping"});
  for (const Matcher* matcher : matchers) {
    const RunRecord record = RunMatcherOnTask(*matcher, task);
    if (!record.completed) {
      table.AddRow({record.method, "-", "-", "-", "-", record.failure});
      continue;
    }
    table.AddRow({record.method, TextTable::Num(record.f_measure),
                  TextTable::Num(record.precision),
                  TextTable::Num(record.recall),
                  TextTable::Num(record.elapsed_ms, 1),
                  record.mapping.ToString(&task.log1.dictionary(),
                                          &task.log2.dictionary())});
  }
  table.Print(std::cout);
  return 0;
}
