// Pins how every caller turns its method choice into matchers: the rung
// names in order and whether the result is wrapped in a fallback ladder.
// Observed from the outside only (result stages, per-method counters,
// serve replies, CLI metrics JSON), so the table holds however the
// matchers are assembled.
//
// Every run uses a one-expansion budget: each rung trips and the ladder
// walks all the way down, so `stages` lists every rung it was built with.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/match_pipeline.h"
#include "core/matching_context.h"
#include "core/pattern_set.h"
#include "eval/recovery.h"
#include "gen/bus_process.h"
#include "graph/dependency_graph.h"
#include "obs/metrics.h"
#include "obs/trace_analysis.h"
#include "serve/service.h"

namespace hematch {
namespace {

using Rungs = std::vector<std::string>;

const Rungs kExactLadder = {"Pattern-Tight", "Heuristic-Advanced",
                            "Heuristic-Simple"};

MatchingTask SmallBusTask() {
  BusProcessOptions options;
  options.num_traces = 300;
  return MakeBusManufacturerTask(options);
}

Rungs StageNames(const MatchResult& result) {
  Rungs names;
  for (const StageAttempt& stage : result.stages) {
    names.push_back(stage.method);
  }
  return names;
}

struct PipelineRow {
  MatchMethod method;
  bool degrade;
  bool portfolio;
  Rungs rungs;
  bool wrapped;
};

TEST(LadderPinTest, MatchLogsRungsPerMethodDegradeAndPortfolio) {
  const PipelineRow rows[] = {
      {MatchMethod::kPatternTight, true, false, kExactLadder, true},
      {MatchMethod::kPatternTight, false, false, {"Pattern-Tight"}, false},
      {MatchMethod::kPatternSimple, true, false,
       {"Pattern-Simple", "Heuristic-Advanced", "Heuristic-Simple"}, true},
      {MatchMethod::kPatternSimple, false, false, {"Pattern-Simple"}, false},
      {MatchMethod::kParallelAStar, true, false,
       {"Pattern-Parallel", "Heuristic-Advanced", "Heuristic-Simple"}, true},
      {MatchMethod::kParallelAStar, false, false, {"Pattern-Parallel"}, false},
      {MatchMethod::kHeuristicSimple, true, false, {"Heuristic-Simple"},
       false},
      {MatchMethod::kHeuristicSimple, false, false, {"Heuristic-Simple"},
       false},
      {MatchMethod::kHeuristicAdvanced, true, false, {"Heuristic-Advanced"},
       false},
      {MatchMethod::kHeuristicAdvanced, false, false, {"Heuristic-Advanced"},
       false},
      {MatchMethod::kVertex, true, false, {"Vertex"}, false},
      {MatchMethod::kVertex, false, false, {"Vertex"}, false},
      {MatchMethod::kVertexEdge, true, false, {"Vertex+Edge"}, false},
      {MatchMethod::kVertexEdge, false, false, {"Vertex+Edge"}, false},
      {MatchMethod::kIterative, true, false, {"Iterative"}, false},
      {MatchMethod::kIterative, false, false, {"Iterative"}, false},
      {MatchMethod::kEntropy, true, false, {"Entropy-only"}, false},
      {MatchMethod::kEntropy, false, false, {"Entropy-only"}, false},
      // The portfolio races the same chain; degrade does not apply.
      {MatchMethod::kPatternTight, true, true, kExactLadder, true},
      {MatchMethod::kPatternTight, false, true, kExactLadder, true},
      {MatchMethod::kPatternSimple, true, true,
       {"Pattern-Simple", "Heuristic-Advanced", "Heuristic-Simple"}, true},
      {MatchMethod::kParallelAStar, true, true,
       {"Pattern-Parallel", "Pattern-Tight", "Heuristic-Advanced",
        "Heuristic-Simple"},
       true},
      // Nothing to hedge: the portfolio flag is ignored.
      {MatchMethod::kHeuristicAdvanced, true, true, {"Heuristic-Advanced"},
       false},
  };
  const MatchingTask task = SmallBusTask();
  for (const PipelineRow& row : rows) {
    SCOPED_TRACE(::testing::Message()
                 << "method " << static_cast<int>(row.method) << " degrade "
                 << row.degrade << " portfolio " << row.portfolio);
    MatchPipelineOptions options;
    options.method = row.method;
    options.degrade = row.degrade;
    options.portfolio = row.portfolio;
    options.search_threads = 2;
    options.budget.max_expansions = 1;
    Result<MatchPipelineOutcome> outcome =
        MatchLogs(task.log1, task.log2, options);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    const MatchResult& result = outcome->result;
    if (row.wrapped) {
      EXPECT_EQ(StageNames(result), row.rungs);
    } else {
      ASSERT_EQ(row.rungs.size(), 1u);
      EXPECT_TRUE(result.stages.empty());
      EXPECT_EQ(outcome->telemetry.counter(obs::MetricSlug(row.rungs[0]) +
                                           ".runs"),
                1u);
    }
  }
}

TEST(LadderPinTest, ServeRungsPerMethodAndShedLevel) {
  struct Row {
    const char* method;
    int shed_level;
    Rungs rungs;
  };
  const Rungs advanced_simple = {"Heuristic-Advanced", "Heuristic-Simple"};
  const Rungs simple = {"Heuristic-Simple"};
  const Row rows[] = {
      {"auto", 0, kExactLadder},
      {"auto", 1, advanced_simple},
      {"auto", 2, simple},
      {"exact", 0, kExactLadder},
      {"exact", 1, advanced_simple},
      {"exact", 2, simple},
      {"parallel", 0,
       {"Pattern-Parallel", "Heuristic-Advanced", "Heuristic-Simple"}},
      {"parallel", 1, advanced_simple},
      {"parallel", 2, simple},
      {"heuristic", 0, advanced_simple},
      {"heuristic", 1, advanced_simple},
      {"heuristic", 2, simple},
  };
  const MatchingTask task = SmallBusTask();
  serve::WarmContext warm;
  warm.log1 = std::make_shared<const EventLog>(task.log1);
  warm.log2 = std::make_shared<const EventLog>(task.log2);
  warm.base = std::make_unique<MatchingContext>(
      *warm.log1, *warm.log2,
      BuildPatternSet(DependencyGraph::Build(*warm.log1),
                      task.complex_patterns));
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message() << row.method << " at shed level "
                                      << row.shed_level);
    serve::MatchRequestSpec spec;
    spec.method = row.method;
    spec.search_threads = 2;
    spec.max_expansions = 1;
    spec.deadline_ms = 10'000.0;
    exec::CancelToken token;
    const serve::MatchOutcome outcome =
        serve::ExecuteMatch(warm, false, spec, row.shed_level, 0.0, true,
                            serve::ServiceOptions{}, token);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    Rungs names;
    for (const auto& [method, termination] : outcome.reply.stages) {
      names.push_back(method);
    }
    // Every serve reply comes out of a ladder, even a one-rung one.
    EXPECT_EQ(names, row.rungs);
  }
}

TEST(LadderPinTest, NoiseSweepRunsTheExactLadder) {
  BusProcessOptions workload;
  workload.num_traces = 150;
  NoiseSweepOptions sweep;
  sweep.rates = {0.0};
  sweep.budget.max_expansions = 1;
  const std::vector<NoiseSweepPoint> points =
      RunNoiseSweep(MakeBusManufacturerTask(workload), sweep);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].record.stages.size(), 3u);
  Rungs names;
  for (const StageAttempt& stage : points[0].record.stages) {
    names.push_back(stage.method);
  }
  EXPECT_EQ(names, kExactLadder);
}

#ifdef HEMATCH_CLI_PATH

struct CliRun {
  std::string method;
  Rungs stages;
};

/// Runs hematch_cli on the sample logs with `flags` and returns each
/// run of its --metrics-out document in table order.
std::vector<CliRun> RunCli(const std::string& flags) {
  // One file per test: ctest runs the tests as concurrent processes.
  const std::string metrics =
      ::testing::TempDir() + "ladder_pin_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".json";
  const std::string command =
      std::string(HEMATCH_CLI_PATH) + " " + flags +
      " --metrics-out=" + metrics + " " HEMATCH_DATA_DIR "/dept_a.tr " +
      HEMATCH_DATA_DIR "/dept_b.csv > /dev/null 2>&1";
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
  std::ifstream in(metrics);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(metrics.c_str());
  Result<obs::JsonValue> doc = obs::ParseJson(text.str());
  EXPECT_TRUE(doc.ok()) << doc.status();
  std::vector<CliRun> runs;
  if (!doc.ok() || doc->Find("runs") == nullptr) {
    return runs;
  }
  for (const obs::JsonValue& run : doc->Find("runs")->items) {
    CliRun out;
    out.method = run.Find("method")->text;
    if (const obs::JsonValue* stages = run.Find("stages")) {
      for (const obs::JsonValue& stage : stages->items) {
        out.stages.push_back(stage.Find("method")->text);
      }
    }
    runs.push_back(std::move(out));
  }
  return runs;
}

Rungs Methods(const std::vector<CliRun>& runs) {
  Rungs names;
  for (const CliRun& run : runs) {
    names.push_back(run.method);
  }
  return names;
}

const Rungs kCliAllRows = {"Pattern-Tight",      "Pattern-Simple",
                           "Pattern-Parallel",   "Heuristic-Simple",
                           "Heuristic-Advanced", "Vertex",
                           "Vertex+Edge",        "Iterative",
                           "Entropy-only"};

TEST(LadderPinTest, CliAllRowOrderAndLadders) {
  // --budget caps only the exact search, so each exact row degrades one
  // rung and the advanced heuristic completes.
  const std::vector<CliRun> runs =
      RunCli("--method all --budget 1 --search-threads 2");
  EXPECT_EQ(Methods(runs), kCliAllRows);
  ASSERT_EQ(runs.size(), kCliAllRows.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(runs[i].method);
    if (i < 3) {
      EXPECT_EQ(runs[i].stages, (Rungs{runs[i].method, "Heuristic-Advanced"}));
    } else {
      EXPECT_TRUE(runs[i].stages.empty());
    }
  }

  const std::vector<CliRun> bare =
      RunCli("--method all --budget 1 --search-threads 2 --no-degrade");
  EXPECT_EQ(Methods(bare), kCliAllRows);
  for (const CliRun& run : bare) {
    EXPECT_TRUE(run.stages.empty()) << run.method;
  }
}

TEST(LadderPinTest, CliPortfolioRaceCards) {
  const struct {
    const char* method;
    Rungs card;
  } rows[] = {
      {"pattern-tight", kExactLadder},
      {"pattern-simple",
       {"Pattern-Simple", "Heuristic-Advanced", "Heuristic-Simple"}},
      {"pattern-parallel",
       {"Pattern-Parallel", "Pattern-Tight", "Heuristic-Advanced",
        "Heuristic-Simple"}},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.method);
    const std::vector<CliRun> runs =
        RunCli(std::string("--portfolio --budget 1 --search-threads 2 "
                           "--method ") +
               row.method);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].method, "portfolio");
    EXPECT_EQ(runs[0].stages, row.card);
  }
}

#endif  // HEMATCH_CLI_PATH

}  // namespace
}  // namespace hematch
