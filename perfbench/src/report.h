#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// What one benchmark run reports: the metric catalog (names and units,
// read from BENCHMARK.json), the run's values, and its verdict.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// BENCHMARK.json's metric lists.
struct Catalog {
  /// Printed by every untraced run of every workload.
  std::vector<MetricDef> end_to_end;
  /// Printed by every traced run of every workload. A layer that is not
  /// on a workload's path reads 0 there.
  std::vector<MetricDef> per_layer;
};

/// Command-line arguments of one run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span file (created if missing).
  std::string trace_dir = ".bench_build/traces";
};

class Report {
 public:
  explicit Report(Catalog catalog) : catalog_(std::move(catalog)) {}

  /// Records `value` under `name`; the unit comes from the catalog.
  void Set(const std::string& name, double value);
  /// Marks the run incorrect (answer check, parity, or invariant).
  void Fail(const std::string& message);
  /// Prints a human-readable line (prefixed "# ") immediately.
  static void Info(const std::string& line);

  const Catalog& catalog() const { return catalog_; }
  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::map<std::string, double>& values() const { return values_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  Catalog catalog_;
  std::map<std::string, double> values_;
  std::vector<std::string> errors_;
};

/// Milliseconds elapsed since `start` on the steady clock.
inline double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Peak resident set size of this process since it started, or since
/// the last successful ResetPeakRss(), in MiB.
double PeakRssMb();

/// Resets the kernel's peak-RSS mark of this process to its current RSS
/// (Linux /proc/self/clear_refs). False where the kernel refuses; then
/// PeakRssMb() keeps reporting the lifetime peak.
bool ResetPeakRss();

void RunBusBatch(const RunArgs& args, Report& report);
void RunDecoySearch(const RunArgs& args, Report& report);

/// The serve and exec layers' per-layer metrics from a traced open-loop
/// phase against an in-process server (set-up, then 200 requests of a
/// four-tenant mix at 40 requests/s). bus_batch's traced run calls it.
void MeasureServeLayers(const RunArgs& args, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
