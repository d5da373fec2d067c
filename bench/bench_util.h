#ifndef HEMATCH_BENCH_BENCH_UTIL_H_
#define HEMATCH_BENCH_BENCH_UTIL_H_

// Shared plumbing for the figure/table reproduction harnesses. Each
// harness prints the same rows/series as the corresponding figure or
// table of the paper (F-measure, wall-clock, and processed-mapping
// counts per method); see EXPERIMENTS.md for the paper-vs-measured
// record.
//
// When HEMATCH_BENCH_METRICS_DIR is set in the environment, Print()
// additionally writes BENCH_<figure>.json into that directory: one
// entry per (x_value, method) run with the headline numbers and the
// run's full telemetry snapshot (schema in docs/OBSERVABILITY.md).

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/matcher_factory.h"
#include "core/matcher.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "gen/matching_task.h"
#include "obs/metrics_json.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace hematch::bench {

/// Process-wide span recorder, created iff HEMATCH_TRACE_OUT names a
/// file. Harnesses pass it to portfolio options / evaluators and call
/// `WriteBenchTrace()` once before exiting; null means tracing is off
/// and records cost nothing.
inline const std::shared_ptr<obs::TraceRecorder>& BenchTraceRecorder() {
  static const std::shared_ptr<obs::TraceRecorder> recorder = [] {
    const char* path = std::getenv("HEMATCH_TRACE_OUT");
    std::shared_ptr<obs::TraceRecorder> r;
    if (path != nullptr && *path != '\0') {
      r = std::make_shared<obs::TraceRecorder>();
      r->SetThreadName("bench-main");
    }
    return r;
  }();
  return recorder;
}

/// Writes the recorder's events to $HEMATCH_TRACE_OUT (no-op when the
/// env var is unset).
inline void WriteBenchTrace() {
  const std::shared_ptr<obs::TraceRecorder>& recorder = BenchTraceRecorder();
  if (recorder == nullptr) {
    return;
  }
  const std::string path = std::getenv("HEMATCH_TRACE_OUT");
  const Status written = recorder->WriteChromeJson(path);
  if (!written.ok()) {
    std::cerr << "bench: cannot write trace to " << path << ": " << written
              << "\n";
    return;
  }
  std::cout << "wrote span trace to " << path << "\n";
}

/// Prints one interpolated-percentile line per non-empty histogram in
/// the snapshot (see HistogramSnapshot::Percentile).
inline void PrintHistogramPercentiles(const obs::TelemetrySnapshot& snapshot,
                                      std::ostream& out) {
  for (const auto& [name, hist] : snapshot.histograms) {
    const std::uint64_t count = hist.total_count();
    if (count == 0) {
      continue;
    }
    out << "  " << name << ": p50 " << TextTable::Num(hist.Percentile(0.50))
        << ", p95 " << TextTable::Num(hist.Percentile(0.95)) << ", p99 "
        << TextTable::Num(hist.Percentile(0.99)) << "  (n=" << count << ")\n";
  }
}

/// Runs every matcher on `task` and appends one row per metric table.
/// A method that fails (budget exhausted) renders as "-", matching the
/// paper's "cannot return results".
struct FigureTables {
  explicit FigureTables(std::vector<std::string> header)
      : f_measure(header), time_ms(header), mappings(header) {}

  TextTable f_measure;
  TextTable time_ms;
  TextTable mappings;

  /// One benchmark run kept for the optional JSON export.
  struct RunSummary {
    std::string x_value;
    RunRecord record;
  };
  std::vector<RunSummary> runs;

  void AddRows(const std::string& x_value,
               const std::vector<const Matcher*>& matchers,
               const MatchingTask& task) {
    std::vector<std::string> f_row = {x_value};
    std::vector<std::string> t_row = {x_value};
    std::vector<std::string> m_row = {x_value};
    for (const Matcher* matcher : matchers) {
      RunRecord record = RunMatcherOnTask(*matcher, task);
      const bool completed = record.completed;
      if (completed) {
        f_row.push_back(TextTable::Num(record.f_measure));
        t_row.push_back(TextTable::Num(record.elapsed_ms, 2));
        m_row.push_back(std::to_string(record.mappings_processed));
      } else {
        f_row.push_back("-");
        t_row.push_back("-");
        m_row.push_back("-");
      }
      runs.push_back({x_value, std::move(record)});
    }
    f_measure.AddRow(std::move(f_row));
    time_ms.AddRow(std::move(t_row));
    mappings.AddRow(std::move(m_row));
  }

  void Print(const std::string& figure, const std::string& x_name) const {
    std::cout << "\n== " << figure << "a: F-measure vs " << x_name
              << " ==\n";
    f_measure.Print(std::cout);
    std::cout << "\n== " << figure << "b: time (ms) vs " << x_name
              << " ==\n";
    time_ms.Print(std::cout);
    std::cout << "\n== " << figure << "c: # processed mappings vs " << x_name
              << " ==\n";
    mappings.Print(std::cout);
    MaybeWriteMetrics(figure, x_name);
  }

 private:
  void MaybeWriteMetrics(const std::string& figure,
                         const std::string& x_name) const {
    const char* dir = std::getenv("HEMATCH_BENCH_METRICS_DIR");
    if (dir == nullptr || *dir == '\0') {
      return;
    }
    std::string slug;
    for (char c : figure) {
      if (c == ' ' || c == '/' || c == '.') {
        slug += '_';
      } else {
        slug += c;
      }
    }
    const std::string path =
        std::string(dir) + "/BENCH_" + slug + ".json";
    std::string json;
    json += "{\n  \"schema\": \"hematch.bench_metrics.v1\",\n";
    json += "  \"figure\": \"" + obs::JsonEscape(figure) + "\",\n";
    json += "  \"x_name\": \"" + obs::JsonEscape(x_name) + "\",\n";
    json += "  \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunRecord& r = runs[i].record;
      json += i == 0 ? "\n" : ",\n";
      json += "    {\n";
      json += "      \"x\": \"" + obs::JsonEscape(runs[i].x_value) + "\",\n";
      json += "      \"method\": \"" + obs::JsonEscape(r.method) + "\",\n";
      json += std::string("      \"completed\": ") +
              (r.completed ? "true" : "false") + ",\n";
      json += "      \"f_measure\": " + obs::JsonNumber(r.f_measure) + ",\n";
      json += "      \"objective\": " + obs::JsonNumber(r.objective) + ",\n";
      json += "      \"elapsed_ms\": " + obs::JsonNumber(r.elapsed_ms) + ",\n";
      json += "      \"mappings_processed\": " +
              std::to_string(r.mappings_processed) + ",\n";
      json += "      \"nodes_visited\": " + std::to_string(r.nodes_visited) +
              ",\n";
      json +=
          "      \"telemetry\": " + obs::TelemetryToJson(r.telemetry, 2, 3);
      json += "\n    }";
    }
    json += runs.empty() ? "]\n}\n" : "\n  ]\n}\n";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench: cannot write " << path << "\n";
      return;
    }
    out << json;
    std::cout << "wrote per-run metrics to " << path << "\n";
  }
};

/// `spec`'s matcher as the factory builds it, minus the fallback
/// ladder: a harness times each method alone, under no run budget.
inline std::unique_ptr<Matcher> BareMatcher(MatcherSpec spec) {
  spec.degrade = false;
  return MakeMatcher(spec, exec::RunBudget{}, /*cancel=*/nullptr);
}

/// Bare matchers, one per method.
struct MethodMatchers {
  std::vector<std::unique_ptr<Matcher>> owned;
  std::vector<const Matcher*> matchers;  ///< Views of `owned`.
};

/// One bare matcher per method, in order, as the paper runs them
/// (`MakePaperMatcher`), so the figure and table benches reproduce the
/// paper's mapping counts; `max_expansions` caps the exact and
/// Vertex+Edge searches.
inline MethodMatchers MakePaperMatchers(
    std::initializer_list<MatchMethod> methods,
    std::uint64_t max_expansions = MatcherSpec{}.max_expansions) {
  MethodMatchers out;
  MatcherSpec spec;
  spec.max_expansions = max_expansions;
  for (MatchMethod method : methods) {
    spec.method = method;
    out.owned.push_back(MakePaperMatcher(spec));
    out.matchers.push_back(out.owned.back().get());
  }
  return out;
}

/// Header row: the x-axis label followed by method names.
inline std::vector<std::string> MakeHeader(
    const std::string& x_name, const std::vector<const Matcher*>& matchers) {
  std::vector<std::string> header = {x_name};
  for (const Matcher* matcher : matchers) {
    header.push_back(matcher->name());
  }
  return header;
}

}  // namespace hematch::bench

#endif  // HEMATCH_BENCH_BENCH_UTIL_H_
