// Reproduces Fig. 7: evaluation of the exact approaches over various
// numbers of events (real-like workload, 3000 traces, events 2..11).
// Series: Pattern-Simple, Pattern-Tight, Vertex, Vertex+Edge, Iterative.
//
// Expected shapes (paper): the pattern approaches have the highest
// F-measure; Pattern-Simple and Pattern-Tight return identical mappings
// (both exact) but Pattern-Tight expands far fewer A* tree nodes — up to
// two orders of magnitude less time at the largest event counts.

#include <iostream>

#include "bench_util.h"
#include "gen/bus_process.h"

int main() {
  using namespace hematch;
  const MatchingTask full = MakeBusManufacturerTask({});

  const bench::MethodMatchers methods = bench::MakePaperMatchers(
      {MatchMethod::kPatternSimple, MatchMethod::kPatternTight,
       MatchMethod::kVertex, MatchMethod::kVertexEdge,
       MatchMethod::kIterative});
  const std::vector<const Matcher*>& matchers = methods.matchers;

  std::cout << "Fig. 7: exact approaches over # of events ("
            << full.log1.num_traces() << " traces)\n";
  bench::FigureTables tables(bench::MakeHeader("# events", matchers));
  for (std::size_t events = 2; events <= full.log1.num_events(); ++events) {
    tables.AddRows(std::to_string(events), matchers,
                   ProjectTaskEvents(full, events));
  }
  tables.Print("Fig. 7", "# events");
  return 0;
}
