// Reproduces Table 4: counts of returned results over random logs in
// 1,000 tests. Two independent uniformly random 4-event logs admit no
// true mapping; a well-behaved matcher should show no strong bias toward
// particular mappings, so the counts of the 4! = 24 possible results
// should be roughly uniform (~42 each) for Exact, Heuristic-Simple, and
// Heuristic-Advanced.

#include <array>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "gen/random_logs.h"

int main() {
  using namespace hematch;
  constexpr int kTests = 1000;

  const bench::MethodMatchers methods = bench::MakePaperMatchers(
      {MatchMethod::kPatternTight, MatchMethod::kHeuristicSimple,
       MatchMethod::kHeuristicAdvanced});
  const std::vector<const Matcher*>& matchers = methods.matchers;

  // counts[mapping string][method index]
  std::map<std::string, std::array<int, 3>> counts;
  std::array<int, 3> failures = {0, 0, 0};

  for (int test = 0; test < kTests; ++test) {
    RandomLogsOptions options;
    options.seed = 1000003ULL * static_cast<std::uint64_t>(test) + 17;
    const MatchingTask task = MakeRandomTask(options);
    for (std::size_t m = 0; m < matchers.size(); ++m) {
      const RunRecord record = RunMatcherOnTask(*matchers[m], task);
      if (!record.completed) {
        ++failures[m];
        continue;
      }
      // Canonical key: target ids in source order, e.g. "2,0,1,3".
      std::string key;
      for (EventId v = 0; v < record.mapping.num_sources(); ++v) {
        if (v > 0) key += ',';
        key += std::to_string(record.mapping.TargetOf(v));
      }
      ++counts[key][m];
    }
  }

  std::cout << "Table 4: counts of returned results over random logs in "
            << kTests << " tests\n"
            << "(24 possible mappings; uniform expectation ~"
            << kTests / 24 << " per mapping per method)\n\n";
  TextTable table({"mapping (A0..A3 -> X?)", "Exact", "Heuristic-Simple",
                   "Heuristic-Advanced"});
  int row_index = 0;
  for (const auto& [key, per_method] : counts) {
    ++row_index;
    table.AddRow({std::to_string(row_index) + ": " + key,
                  std::to_string(per_method[0]),
                  std::to_string(per_method[1]),
                  std::to_string(per_method[2])});
  }
  table.Print(std::cout);
  std::cout << "\ndistinct mappings returned: " << counts.size()
            << " (max possible 24)\n";
  for (std::size_t m = 0; m < matchers.size(); ++m) {
    if (failures[m] > 0) {
      std::cout << matchers[m]->name() << " failures: " << failures[m]
                << "\n";
    }
  }
  return 0;
}
