// Reproduces Fig. 12: the larger synthetic data (repeated structures of
// Fig. 11), varying the number of events from 10 to 100 with 10,000
// traces. Series: Exact (Pattern-Tight), Heuristic-Simple,
// Heuristic-Advanced, Vertex, Vertex+Edge, Iterative, Entropy-only.
//
// Expected shapes (paper): the exact method has the highest accuracy but
// cannot return results from ~20-30 events on (budget exhausted, printed
// as "-"), and Vertex+Edge fails similarly; the pattern heuristics keep
// returning mappings with higher accuracy than Vertex/Iterative/Entropy;
// all methods degrade as events multiply (more events = more confusable).
//
// Exact and Vertex+Edge are skipped after their first failure so the
// harness completes quickly; the paper likewise reports no results for
// them beyond the failure point.

#include <iostream>

#include "bench_util.h"
#include "eval/runner.h"
#include "gen/synthetic_process.h"

int main() {
  using namespace hematch;

  constexpr std::uint64_t kSearchBudget = 400'000;
  const bench::MethodMatchers methods = bench::MakePaperMatchers(
      {MatchMethod::kPatternTight, MatchMethod::kHeuristicSimple,
       MatchMethod::kHeuristicAdvanced, MatchMethod::kVertex,
       MatchMethod::kVertexEdge, MatchMethod::kIterative,
       MatchMethod::kEntropy},
      kSearchBudget);
  const std::vector<const Matcher*>& matchers = methods.matchers;
  const Matcher* const exact = matchers[0];
  const Matcher* const vertex_edge = matchers[4];

  std::cout << "Fig. 12: larger synthetic data over # of events "
            << "(10,000 traces; search budget " << kSearchBudget
            << " expansions)\n";
  bench::FigureTables tables(bench::MakeHeader("# events", matchers));

  bool exact_alive = true;
  bool ve_alive = true;
  for (std::size_t units = 1; units <= 10; ++units) {
    SyntheticProcessOptions options;
    options.num_units = units;
    const MatchingTask task = MakeSyntheticTask(options);

    std::vector<std::string> f_row = {std::to_string(10 * units)};
    std::vector<std::string> t_row = f_row;
    std::vector<std::string> m_row = f_row;
    for (const Matcher* matcher : matchers) {
      const bool skip = (matcher == exact && !exact_alive) ||
                        (matcher == vertex_edge && !ve_alive);
      if (skip) {
        f_row.push_back("-");
        t_row.push_back("-");
        m_row.push_back("-");
        continue;
      }
      const RunRecord record = RunMatcherOnTask(*matcher, task);
      if (!record.completed) {
        if (matcher == exact) exact_alive = false;
        if (matcher == vertex_edge) ve_alive = false;
        f_row.push_back("-");
        t_row.push_back("-");
        m_row.push_back("-");
        continue;
      }
      f_row.push_back(TextTable::Num(record.f_measure));
      t_row.push_back(TextTable::Num(record.elapsed_ms, 2));
      m_row.push_back(std::to_string(record.mappings_processed));
    }
    tables.f_measure.AddRow(std::move(f_row));
    tables.time_ms.AddRow(std::move(t_row));
    tables.mappings.AddRow(std::move(m_row));
  }
  tables.Print("Fig. 12", "# events");
  return 0;
}
