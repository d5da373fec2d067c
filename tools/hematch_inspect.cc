// hematch_inspect — summarize one event log: vocabulary, trace statistics,
// dependency graph, and (optionally) mined discriminative patterns.
// The reconnaissance step before matching two logs.
//
// Usage:
//   hematch_inspect [--mine] [--mine-support F] [--top N] <log>
//
// The log format is chosen by extension (.csv / .xes / trace-per-line).

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "eval/table.h"
#include "gen/pattern_miner.h"
#include "graph/dependency_graph.h"
#include "log/log_io.h"
#include "log/log_stats.h"
#include "log/xes_io.h"

namespace {

using namespace hematch;

Result<EventLog> LoadLog(const std::string& path) {
  auto has_suffix = [&](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  if (has_suffix(".csv")) {
    return ReadCsvLogFile(path);
  }
  if (has_suffix(".xes")) {
    return ReadXesLogFile(path);
  }
  return ReadTraceLogFile(path);
}

}  // namespace

int main(int argc, char** argv) {
  bool mine = false;
  double mine_support = 0.1;
  std::size_t top = 20;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--mine") {
        mine = true;
      } else if (arg == "--mine-support" && i + 1 < argc) {
        mine_support = std::stod(argv[++i]);
      } else if (arg == "--top" && i + 1 < argc) {
        top = static_cast<std::size_t>(std::stoul(argv[++i]));
      } else if (arg == "--help" || arg == "-h" || StartsWith(arg, "--")) {
        std::cerr << "usage: hematch_inspect [--mine] [--mine-support F] "
                     "[--top N] <log>\n";
        return arg == "--help" || arg == "-h" ? 0 : 2;
      } else {
        path = arg;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << arg << "\n";
      return 2;
    }
  }
  if (path.empty()) {
    std::cerr << "usage: hematch_inspect [--mine] [--mine-support F] "
                 "[--top N] <log>\n";
    return 2;
  }

  Result<EventLog> log = LoadLog(path);
  if (!log.ok()) {
    std::cerr << "cannot load " << path << ": " << log.status() << "\n";
    return 1;
  }

  const LogStats stats = ComputeLogStats(*log);
  const DependencyGraph graph = DependencyGraph::Build(*log);
  std::cout << path << ":\n"
            << "  traces        : " << stats.num_traces << "\n"
            << "  events        : " << stats.num_events << "\n"
            << "  occurrences   : " << stats.total_length << "\n"
            << "  trace length  : min " << stats.min_trace_length << ", mean "
            << TextTable::Num(stats.mean_trace_length, 2) << ", max "
            << stats.max_trace_length << "\n"
            << "  graph edges   : " << graph.num_edges() << "\n\n";

  // Events by frequency.
  std::vector<EventId> order(log->num_events());
  for (EventId v = 0; v < log->num_events(); ++v) {
    order[v] = v;
  }
  std::stable_sort(order.begin(), order.end(), [&](EventId a, EventId b) {
    return stats.frequency[a] > stats.frequency[b];
  });
  TextTable events({"event", "frequency", "entropy", "out-degree",
                    "in-degree"});
  for (std::size_t i = 0; i < order.size() && i < top; ++i) {
    const EventId v = order[i];
    events.AddRow({log->dictionary().Name(v),
                   TextTable::Num(stats.frequency[v]),
                   TextTable::Num(stats.occurrence_entropy[v]),
                   std::to_string(graph.OutNeighbors(v).size()),
                   std::to_string(graph.InNeighbors(v).size())});
  }
  events.Print(std::cout);

  // Strongest dependency edges.
  std::vector<std::pair<EventId, EventId>> edges = graph.edges();
  std::stable_sort(edges.begin(), edges.end(),
                   [&](const auto& a, const auto& b) {
                     return graph.EdgeFrequency(a.first, a.second) >
                            graph.EdgeFrequency(b.first, b.second);
                   });
  std::cout << "\nstrongest dependency edges:\n";
  TextTable edge_table({"edge", "frequency"});
  for (std::size_t i = 0; i < edges.size() && i < top; ++i) {
    const auto& [u, v] = edges[i];
    edge_table.AddRow(
        {log->dictionary().Name(u) + " -> " + log->dictionary().Name(v),
         TextTable::Num(graph.EdgeFrequency(u, v))});
  }
  edge_table.Print(std::cout);

  if (mine) {
    PatternMinerOptions options;
    options.min_support = mine_support;
    options.max_patterns = top;
    const std::vector<Pattern> mined =
        MineDiscriminativePatterns(*log, options);
    std::cout << "\nmined discriminative patterns:\n";
    if (mined.empty()) {
      std::cout << "  (none above support " << mine_support << ")\n";
    }
    for (const Pattern& p : mined) {
      std::cout << "  " << p.ToString(&log->dictionary()) << "\n";
    }
  }
  return 0;
}
