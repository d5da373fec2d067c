// Reproduces Fig. 9: evaluation of the heuristic approaches over various
// numbers of events (real-like workload). Series: Exact (Pattern-Tight),
// Heuristic-Simple, Heuristic-Advanced, Vertex, Vertex+Edge, Iterative.
//
// Expected shapes (paper): Heuristic-Advanced clearly improves on
// Heuristic-Simple; the heuristics process orders of magnitude fewer
// mappings than Exact; Heuristic-Advanced's accuracy approaches Exact
// while its time stays comparable to Heuristic-Simple.

#include <iostream>

#include "bench_util.h"
#include "gen/bus_process.h"

int main() {
  using namespace hematch;
  const MatchingTask full = MakeBusManufacturerTask({});

  // Exact is Pattern-Tight, the cheaper exact variant.
  const bench::MethodMatchers methods = bench::MakePaperMatchers(
      {MatchMethod::kPatternTight, MatchMethod::kHeuristicSimple,
       MatchMethod::kHeuristicAdvanced, MatchMethod::kVertex,
       MatchMethod::kVertexEdge, MatchMethod::kIterative});
  const std::vector<const Matcher*>& matchers = methods.matchers;

  std::cout << "Fig. 9: heuristic approaches over # of events ("
            << full.log1.num_traces() << " traces)\n";
  bench::FigureTables tables(bench::MakeHeader("# events", matchers));
  for (std::size_t events = 2; events <= full.log1.num_events(); ++events) {
    tables.AddRows(std::to_string(events), matchers,
                   ProjectTaskEvents(full, events));
  }
  tables.Print("Fig. 9", "# events");
  return 0;
}
