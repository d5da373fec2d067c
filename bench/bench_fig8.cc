// Reproduces Fig. 8: evaluation of the exact approaches over various
// numbers of traces (real-like workload, all 11 events, 500..3000
// traces). Series as in Fig. 7.
//
// Expected shapes (paper): accuracy increases with the trace count
// (frequencies become more discriminative); time rises roughly linearly
// with traces; the pruning power of the tight bound is unaffected.

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

  std::cout << "Fig. 8: exact approaches over # of traces ("
            << full.log1.num_events() << " events)\n";
  bench::FigureTables tables(bench::MakeHeader("# traces", matchers));
  for (std::size_t traces = 500; traces <= full.log1.num_traces();
       traces += 500) {
    tables.AddRows(std::to_string(traces), matchers,
                   SelectTaskTraces(full, traces));
  }
  tables.Print("Fig. 8", "# traces");
  return 0;
}
