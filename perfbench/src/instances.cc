#include "instances.h"

#include <set>
#include <sstream>

#include "core/astar_matcher.h"
#include "core/matching_context.h"
#include "core/pattern_set.h"
#include "gen/bus_process.h"
#include "gen/log_corruptor.h"
#include "gen/synthetic_process.h"
#include "graph/dependency_graph.h"
#include "log/log_io.h"
#include "log/xes_io.h"
#include "pattern/pattern_parser.h"

namespace perfbench {

using hematch::EventLog;
using hematch::Result;
using hematch::Status;

const char* FormatName(LogFormat format) {
  switch (format) {
    case LogFormat::kTr:
      return "tr";
    case LogFormat::kCsv:
      return "csv";
    case LogFormat::kXes:
      return "xes";
  }
  return "?";
}

Result<EventLog> ParseLog(const std::string& text, LogFormat format,
                          std::size_t* csv_salvaged) {
  std::istringstream in(text);
  switch (format) {
    case LogFormat::kTr:
      return hematch::ReadTraceLog(in);
    case LogFormat::kCsv: {
      hematch::CsvReadStats stats;
      Result<EventLog> log = hematch::ReadCsvLog(in, {}, &stats);
      if (csv_salvaged != nullptr) {
        *csv_salvaged = stats.salvaged_rows;
      }
      return log;
    }
    case LogFormat::kXes:
      return hematch::ReadXesLog(in);
  }
  return Status::InvalidArgument("unknown log format");
}

std::string RenderLog(const EventLog& log, LogFormat format) {
  std::ostringstream out;
  switch (format) {
    case LogFormat::kTr:
      hematch::WriteTraceLog(log, out);
      break;
    case LogFormat::kCsv:
      hematch::WriteCsvLog(log, out);
      break;
    case LogFormat::kXes:
      hematch::WriteXesLog(log, out);
      break;
  }
  return out.str();
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 over the pair: distinct, well-spread per-instance seeds.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t DistinctTraces(const EventLog& log) {
  std::set<hematch::Trace> variants(log.traces().begin(), log.traces().end());
  return variants.size();
}

namespace {

// Renders the task as text, with its patterns and planted truth. The
// answer key and input properties are left to AddAnswerKey.
Instance RenderInstance(std::string kind, const hematch::MatchingTask& task,
                        LogFormat format2, std::size_t decoys) {
  Instance inst;
  inst.kind = std::move(kind);
  inst.format1 = LogFormat::kTr;
  inst.format2 = format2;
  inst.text1 = RenderLog(task.log1, inst.format1);
  inst.text2 = RenderLog(task.log2, inst.format2);
  for (const hematch::Pattern& p : task.complex_patterns) {
    inst.patterns.push_back(p.ToString(&task.log1.dictionary()));
  }
  const hematch::EventDictionary& d1 = task.log1.dictionary();
  const hematch::EventDictionary& d2 = task.log2.dictionary();
  for (hematch::EventId s = 0; s < d1.size(); ++s) {
    const hematch::EventId t = task.ground_truth.TargetOf(s);
    if (t != hematch::kInvalidEventId) {
      inst.truth.emplace_back(d1.Name(s), d2.Name(t));
    }
  }
  inst.props.decoys = decoys;
  return inst;
}

}  // namespace

Status AddAnswerKey(Instance& inst) {
  // Parsed back the way the program will parse the text.
  HEMATCH_ASSIGN_OR_RETURN(EventLog log1, ParseLog(inst.text1, inst.format1));
  HEMATCH_ASSIGN_OR_RETURN(EventLog log2, ParseLog(inst.text2, inst.format2));
  HEMATCH_ASSIGN_OR_RETURN(inst.reference_objective,
                           ReferenceObjective(log1, log2, inst.patterns));
  const EventLog& source =
      log1.num_events() > log2.num_events() ? log2 : log1;
  inst.props.events1 = log1.num_events();
  inst.props.events2 = log2.num_events();
  inst.props.traces1 = log1.num_traces();
  inst.props.traces2 = log2.num_traces();
  const hematch::DependencyGraph g = hematch::DependencyGraph::Build(source);
  inst.props.patterns =
      source.num_events() + g.num_edges() + inst.patterns.size();
  inst.props.distinct1 = DistinctTraces(log1);
  inst.props.distinct2 = DistinctTraces(log2);
  return Status::OK();
}

Instance MakeBusInstance(const BusSpec& spec, std::uint64_t seed) {
  hematch::BusProcessOptions options;
  options.num_traces = spec.traces;
  options.seed = seed;
  hematch::MatchingTask task = hematch::MakeBusManufacturerTask(options);
  std::string kind = "bus";
  if (spec.corrupt) {
    // Drop, duplication and swap noise only: many more distinct variants
    // over the same vocabulary. Rates are low enough that the search
    // stays cheap (swaps in particular make it harder fast). A class that
    // happens to vanish would change the vocabulary, so such a draw keeps
    // the clean log.
    hematch::CorruptionSpec noise;
    noise.drop_event = 0.01;
    noise.duplicate_event = 0.03;
    noise.swap_adjacent = 0.01;
    noise.seed = MixSeed(seed, 0xc0);
    hematch::CorruptionReport report;
    hematch::MatchingTask noisy = hematch::CorruptTask(task, noise, &report);
    if (report.vanished_classes.empty() &&
        noisy.log2.num_events() == task.log2.num_events()) {
      task = std::move(noisy);
      kind = "bus+noise";
    }
  }
  for (std::size_t d = 0; d < spec.decoys; ++d) {
    // Singleton-trace decoy labels with identical profiles, as in
    // bench/bench_search.cc: unmatched vocabulary of a dirtier log2.
    const std::string decoy = "decoy" + std::to_string(d);
    for (int i = 0; i < 50; ++i) {
      task.log2.AddTraceByNames({decoy});
    }
  }
  if (spec.decoys > 0) {
    kind += '+';
    kind += std::to_string(spec.decoys);
    kind += "decoys";
  }
  return RenderInstance(std::move(kind), task, spec.format2, spec.decoys);
}

Instance MakeSyntheticInstance(const SyntheticSpec& spec,
                               std::uint64_t seed) {
  hematch::SyntheticProcessOptions options;
  options.num_units = (spec.events + 9) / 10;
  options.num_traces = spec.traces;
  options.seed = seed;
  hematch::MatchingTask task = hematch::MakeSyntheticTask(options);
  if (task.log1.num_events() > spec.events) {
    task = hematch::ProjectTaskEvents(task, spec.events);
  }
  return RenderInstance("synthetic" + std::to_string(spec.events), task,
                        LogFormat::kTr, 0);
}

Result<double> ReferenceObjective(const EventLog& log1, const EventLog& log2,
                                  const std::vector<std::string>& patterns) {
  const bool swapped = log1.num_events() > log2.num_events();
  const EventLog& source = swapped ? log2 : log1;
  const EventLog& target = swapped ? log1 : log2;
  std::vector<hematch::Pattern> complex;
  for (const std::string& text : patterns) {
    HEMATCH_ASSIGN_OR_RETURN(hematch::Pattern p,
                             hematch::ParsePattern(text, source.dictionary()));
    complex.push_back(std::move(p));
  }
  hematch::ContextTelemetryOptions telemetry;
  telemetry.enabled = false;
  hematch::MatchingContext context(
      source, target,
      hematch::BuildPatternSet(hematch::DependencyGraph::Build(source),
                               complex),
      telemetry);
  hematch::AStarOptions options;
  options.scorer.bound = hematch::BoundKind::kBitmapTight;
  options.reductions.dominance_pruning = true;
  options.reductions.symmetry_breaking = true;
  HEMATCH_ASSIGN_OR_RETURN(hematch::MatchResult result,
                           hematch::AStarMatcher(options).Match(context));
  if (!result.completed() || !result.bounds_certified) {
    return Status::Internal("reference search did not certify its optimum");
  }
  return result.objective;
}

Result<hematch::Mapping> MappingFromNames(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const EventLog& source, const EventLog& target, bool swapped) {
  hematch::Mapping mapping(source.num_events(), target.num_events());
  for (const auto& [name1, name2] : pairs) {
    const std::string& s_name = swapped ? name2 : name1;
    const std::string& t_name = swapped ? name1 : name2;
    HEMATCH_ASSIGN_OR_RETURN(hematch::EventId s,
                             source.dictionary().Lookup(s_name));
    HEMATCH_ASSIGN_OR_RETURN(hematch::EventId t,
                             target.dictionary().Lookup(t_name));
    if (mapping.IsSourceMapped(s) || mapping.IsTargetUsed(t)) {
      return Status::InvalidArgument("mapping is not injective at " + s_name +
                                     " -> " + t_name);
    }
    mapping.Set(s, t);
  }
  return mapping;
}

}  // namespace perfbench
