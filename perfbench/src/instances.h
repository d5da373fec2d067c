#ifndef PERFBENCH_INSTANCES_H_
#define PERFBENCH_INSTANCES_H_

// Seeded inputs and their answer keys. Every instance is generated as
// log text — the program under test only ever sees that text — plus
// the planted ground truth (by event name). Its answer key, a reference
// optimum computed by an independent exact configuration, is added
// separately (AddAnswerKey), so that set-up time measures only the
// generation of inputs.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/mapping.h"
#include "log/event_log.h"

namespace perfbench {

enum class LogFormat { kTr, kCsv, kXes };

const char* FormatName(LogFormat format);

/// Parses `text` with the reader for `format`; `csv_salvaged` (optional)
/// receives the lenient CSV reader's salvaged-row count.
hematch::Result<hematch::EventLog> ParseLog(const std::string& text,
                                            LogFormat format,
                                            std::size_t* csv_salvaged = nullptr);

/// Renders `log` in `format`.
std::string RenderLog(const hematch::EventLog& log, LogFormat format);

/// Input properties recorded per workload (see GUIDE.md).
struct InputProperties {
  std::size_t events1 = 0;
  std::size_t events2 = 0;
  std::size_t traces1 = 0;
  std::size_t traces2 = 0;
  std::size_t patterns = 0;  ///< Working pattern set (vertex+edge+complex).
  std::size_t decoys = 0;
  std::size_t distinct1 = 0;  ///< Distinct traces (variants) of log1.
  std::size_t distinct2 = 0;
};

/// One matching problem as the benchmark hands it to the program.
struct Instance {
  std::string kind;
  LogFormat format1 = LogFormat::kTr;
  LogFormat format2 = LogFormat::kTr;
  std::string text1;
  std::string text2;
  /// Complex patterns over log1's vocabulary, as text.
  std::vector<std::string> patterns;
  /// Planted correspondence, log1 name -> log2 name.
  std::vector<std::pair<std::string, std::string>> truth;
  /// Optimum of the pattern normal distance, from the reference search
  /// (set by AddAnswerKey).
  double reference_objective = 0.0;
  /// Only `decoys` is known before AddAnswerKey.
  InputProperties props;
};

/// The generators behind the workloads. `seed` fixes everything.
struct BusSpec {
  std::size_t traces = 3000;
  std::size_t decoys = 0;
  bool corrupt = false;  ///< log2 through drop/dup/swap noise.
  LogFormat format2 = LogFormat::kCsv;
};
Instance MakeBusInstance(const BusSpec& spec, std::uint64_t seed);

struct SyntheticSpec {
  std::size_t events = 14;
  std::size_t traces = 1000;
};
Instance MakeSyntheticInstance(const SyntheticSpec& spec, std::uint64_t seed);

/// Parses the instance's text back, runs the reference search on it
/// (ReferenceObjective) and records its input properties.
hematch::Status AddAnswerKey(Instance& inst);

/// The reference optimum for already-parsed logs: sequential A* with the
/// bitmap-tight bound, dominance pruning and symmetry breaking, oriented
/// like the facade (smaller vocabulary as source). Fails unless the run
/// certifies its optimum.
hematch::Result<double> ReferenceObjective(
    const hematch::EventLog& log1, const hematch::EventLog& log2,
    const std::vector<std::string>& patterns);

/// A mapping given as name pairs (log1 name, log2 name), checked and
/// converted onto the parsed logs' dictionaries in source -> target
/// orientation. Fails on unknown names or a non-injective pair.
hematch::Result<hematch::Mapping> MappingFromNames(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const hematch::EventLog& source, const hematch::EventLog& target,
    bool swapped);

/// Seed mixing for per-instance streams.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt);

/// Distinct traces of `log`.
std::size_t DistinctTraces(const hematch::EventLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_INSTANCES_H_
