// Exact-search speedup harness: the paper's Algorithm 1 against the
// default exact search and the parallel HDA*-style matcher. The
// default instance is the Fig. 9/10
// bus-manufacturer workload with decoy vocabulary on the log2 side —
// the regime where the exact method's branching explodes; passing
// num_events > 11 switches to Fig. 12's repeated-structure synthetic.
//
// Three runs, fresh context each (cold search, warm log indices), all
// built by the matcher factory:
//   sequential  — Pattern-Tight as the paper runs it (MakePaperMatcher:
//                 tight bound, no reductions); the baseline.
//   reduced     — Pattern-Tight as every caller gets it (MakeMatcher:
//                 bitmap-tight bound + symmetry breaking): attributes
//                 the algorithmic share of the speedup.
//   parallel    — Pattern-Parallel at --threads workers (default 8):
//                 bitmap-tight bound, both reductions, HDA* parallelism.
// All three must certify the same optimum; the harness fails loudly on
// an objective mismatch, so the speedup is at *identical* answers.
//
// Prints a human summary; when HEMATCH_BENCH_METRICS_DIR is set, also
// writes BENCH_search.json (schema hematch.bench_search.v1) for
// scripts/check.sh and the committed baseline in bench/baselines/.
//
// Usage: bench_search [num_events] [threads] [num_decoys]
//        (default 11 events, 8 threads, 24 decoys)

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/matching_context.h"
#include "core/pattern_set.h"
#include "gen/bus_process.h"
#include "gen/matching_task.h"
#include "gen/synthetic_process.h"
#include "graph/dependency_graph.h"
#include "obs/metrics_json.h"

namespace {

using namespace hematch;

struct RunResult {
  std::string name;
  double elapsed_ms = 0.0;
  double objective = 0.0;
  bool certified = false;
  std::uint64_t mappings_processed = 0;
  std::uint64_t nodes_visited = 0;
};

RunResult RunMatcher(const std::string& name, const Matcher& matcher,
                     const MatchingTask& task,
                     const std::vector<Pattern>& patterns) {
  MatchingContext context(task.log1, task.log2, patterns);
  const auto start = std::chrono::steady_clock::now();
  Result<MatchResult> result = matcher.Match(context);
  const double elapsed = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (!result.ok()) {
    std::cerr << "bench_search: " << name << " failed: " << result.status()
              << "\n";
    std::exit(2);
  }
  RunResult r;
  r.name = name;
  r.elapsed_ms = elapsed;
  r.objective = result->objective;
  r.certified = result->bounds_certified &&
                result->termination == exec::TerminationReason::kCompleted;
  r.mappings_processed = result->mappings_processed;
  r.nodes_visited = result->nodes_visited;
  return r;
}

std::string RunJson(const RunResult& r) {
  std::string json = "{\n";
  json += "      \"elapsed_ms\": " + obs::JsonNumber(r.elapsed_ms) + ",\n";
  json += "      \"objective\": " + obs::JsonNumber(r.objective) + ",\n";
  json += std::string("      \"certified\": ") +
          (r.certified ? "true" : "false") + ",\n";
  json += "      \"mappings_processed\": " +
          std::to_string(r.mappings_processed) + ",\n";
  json += "      \"nodes_visited\": " + std::to_string(r.nodes_visited) +
          "\n    }";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t num_events =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 11;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 8;
  const std::size_t num_decoys =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 24;

  // Up to 11 events: the Fig. 9/10 bus-manufacturer workload (the
  // paper's "real" dataset). Beyond that: Fig. 12's repeated-structure
  // synthetic, whose near-identical units are exactly what makes the
  // plain tight bound loose and the search space symmetric.
  MatchingTask task;
  if (num_events <= 11) {
    task = MakeBusManufacturerTask({});
  } else {
    SyntheticProcessOptions workload;
    workload.num_units = (num_events + 9) / 10;
    workload.num_traces = 2000;
    task = MakeSyntheticTask(workload);
  }
  if (task.log1.num_events() > num_events) {
    task = ProjectTaskEvents(task, num_events);
  }
  // Decoy targets: junk vocabulary on the log2 side with identical
  // occurrence profiles (singleton traces, same count each), modeling
  // the unmatched noise labels of a dirtier log. Every label swap among
  // them is a trace-multiset automorphism, so symmetry breaking expands
  // one representative per step where the baseline branches over all of
  // them — and their empty co-occurrence rows let the bitmap bound
  // refute optimistic completions through them outright.
  for (std::size_t d = 0; d < num_decoys; ++d) {
    const std::string decoy = "decoy" + std::to_string(d);
    for (int i = 0; i < 50; ++i) {
      task.log2.AddTraceByNames({decoy});
    }
  }
  const std::vector<Pattern> patterns =
      BuildPatternSet(DependencyGraph::Build(task.log1), task.complex_patterns);
  std::cout << "workload: " << task.log1.num_events() << " -> "
            << task.log2.num_events() << " events, "
            << task.log1.num_traces() << " traces, " << patterns.size()
            << " patterns (" << task.complex_patterns.size()
            << " complex)\n";

  // Baseline: Pattern-Tight as the paper runs it.
  MatcherSpec spec;
  const RunResult sequential =
      RunMatcher("sequential", *MakePaperMatcher(spec), task, patterns);

  // Ablation: the same method as every caller gets it.
  const RunResult reduced =
      RunMatcher("reduced", *bench::BareMatcher(spec), task, patterns);

  // The headline: parallel HDA* with its defaults.
  spec.method = MatchMethod::kParallelAStar;
  spec.search_threads = threads;
  const RunResult parallel =
      RunMatcher("parallel", *bench::BareMatcher(spec), task, patterns);

  bool objectives_match = true;
  for (const RunResult* r : {&sequential, &reduced, &parallel}) {
    std::cout << "  " << r->name << ": " << r->elapsed_ms << " ms, objective "
              << r->objective << (r->certified ? " (certified)" : " (!)")
              << ", " << r->mappings_processed << " mappings, "
              << r->nodes_visited << " pops\n";
    objectives_match = objectives_match && r->certified &&
                       std::abs(r->objective - sequential.objective) < 1e-6;
  }
  const double speedup = parallel.elapsed_ms > 0.0
                             ? sequential.elapsed_ms / parallel.elapsed_ms
                             : 0.0;
  const double reduction_speedup =
      reduced.elapsed_ms > 0.0 ? sequential.elapsed_ms / reduced.elapsed_ms
                               : 0.0;
  std::cout << "  speedup: " << speedup << "x (reductions alone "
            << reduction_speedup << "x), objectives "
            << (objectives_match ? "match" : "MISMATCH") << "\n";

  const char* dir = std::getenv("HEMATCH_BENCH_METRICS_DIR");
  if (dir != nullptr && *dir != '\0') {
    const std::string path = std::string(dir) + "/BENCH_search.json";
    std::string json;
    json += "{\n  \"schema\": \"hematch.bench_search.v1\",\n";
    json += "  \"workload\": {\n";
    json += "    \"num_events\": " + std::to_string(task.log1.num_events()) +
            ",\n";
    json += "    \"num_traces\": " + std::to_string(task.log1.num_traces()) +
            ",\n";
    json += "    \"num_decoys\": " + std::to_string(num_decoys) + ",\n";
    json += "    \"patterns\": " + std::to_string(patterns.size()) + ",\n";
    json += "    \"threads\": " + std::to_string(threads) + "\n  },\n";
    json += "  \"modes\": {\n";
    json += "    \"sequential\": " + RunJson(sequential) + ",\n";
    json += "    \"reduced\": " + RunJson(reduced) + ",\n";
    json += "    \"parallel\": " + RunJson(parallel) + "\n  },\n";
    json += "  \"speedup\": " + obs::JsonNumber(speedup) + ",\n";
    json += "  \"reduction_speedup\": " + obs::JsonNumber(reduction_speedup) +
            ",\n";
    json += std::string("  \"objectives_match\": ") +
            (objectives_match ? "true" : "false") + "\n}\n";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench_search: cannot write " << path << "\n";
      return 2;
    }
    out << json;
    std::cout << "wrote " << path << "\n";
  }

  if (!objectives_match) {
    std::cerr << "bench_search: certified objectives disagree\n";
    return 1;
  }
  return 0;
}
