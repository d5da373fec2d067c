// Reproduces Fig. 10: evaluation of the heuristic approaches over various
// numbers of traces (real-like workload, all 11 events). Series as in
// Fig. 9.

#include <iostream>

#include "bench_util.h"
#include "gen/bus_process.h"

int main() {
  using namespace hematch;
  const MatchingTask full = MakeBusManufacturerTask({});

  const bench::MethodMatchers methods = bench::MakePaperMatchers(
      {MatchMethod::kPatternTight, MatchMethod::kHeuristicSimple,
       MatchMethod::kHeuristicAdvanced, MatchMethod::kVertex,
       MatchMethod::kVertexEdge, MatchMethod::kIterative});
  const std::vector<const Matcher*>& matchers = methods.matchers;

  std::cout << "Fig. 10: heuristic approaches over # of traces ("
            << full.log1.num_events() << " events)\n";
  bench::FigureTables tables(bench::MakeHeader("# traces", matchers));
  for (std::size_t traces = 500; traces <= full.log1.num_traces();
       traces += 500) {
    tables.AddRows(std::to_string(traces), matchers,
                   SelectTaskTraces(full, traces));
  }
  tables.Print("Fig. 10", "# traces");
  return 0;
}
