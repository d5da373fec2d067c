// Differential test of the exact search configurations on randomized
// gen/random_logs instances: the default (`AStarOptions{}`, the
// bitmap-tight bound with symmetry breaking), the paper's Algorithm 1
// (`PaperAStarOptions`), the factory's sequential rungs and
// Pattern-Parallel must all certify the brute-force partial-mapping
// oracle's optimum, with and without interchangeable decoy targets and
// under both the total and a finite-penalty (⊥) objective. An
// expansion-capped run must bracket that optimum.

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/matcher_factory.h"
#include "core/astar_matcher.h"
#include "core/matching_context.h"
#include "core/pattern_set.h"
#include "core/search_common.h"
#include "exec/parallel_astar.h"
#include "gen/random_logs.h"
#include "graph/dependency_graph.h"
#include "partial_oracle.h"

namespace hematch {
namespace {

using exec::ParallelAStarMatcher;
using exec::ParallelAStarOptions;
using exec::TerminationReason;

constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

// A random log pair with `decoys` extra log2 labels, each in the same
// number of one-event traces: every swap among them is a trace-multiset
// automorphism, so they form one symmetry class. With `twins`, every
// log2 trace also appears with labels 0 and 1 swapped, so two targets
// every total mapping must use are interchangeable too.
MatchingTask MakeInstance(std::uint64_t seed, std::size_t decoys,
                          bool twins = false) {
  RandomLogsOptions options;
  options.num_events = 3 + seed % 2;
  options.num_traces = 40;
  options.seed = seed;
  MatchingTask task = MakeRandomTask(options);
  if (twins) {
    const std::vector<Trace> traces = task.log2.traces();
    for (Trace trace : traces) {
      for (EventId& e : trace) {
        e = e == 0 ? 1 : e == 1 ? 0 : e;
      }
      task.log2.AddTrace(std::move(trace));
    }
  }
  for (std::size_t d = 0; d < decoys; ++d) {
    for (int i = 0; i < 5; ++i) {
      task.log2.AddTraceByNames({"decoy" + std::to_string(d)});
    }
  }
  task.complex_patterns = {Pattern::SeqOfEvents({0, 1, 2}),
                           Pattern::AndOfEvents({0, 1})};
  return task;
}

std::vector<Pattern> PatternsFor(const MatchingTask& task) {
  return BuildPatternSet(DependencyGraph::Build(task.log1),
                         task.complex_patterns);
}

struct Engine {
  std::string label;
  std::unique_ptr<Matcher> matcher;
};

// Every exact configuration under test, scoring with `penalty`.
std::vector<Engine> Engines(double penalty) {
  std::vector<Engine> engines;
  auto add_astar = [&](const std::string& label, AStarOptions options) {
    options.scorer.partial.unmapped_penalty = penalty;
    engines.push_back({label, std::make_unique<AStarMatcher>(options)});
  };
  add_astar("default", AStarOptions{});
  add_astar("paper tight", PaperAStarOptions(BoundKind::kTight));
  add_astar("paper simple", PaperAStarOptions(BoundKind::kSimple));
  for (const MatchMethod method :
       {MatchMethod::kPatternTight, MatchMethod::kPatternSimple}) {
    MatcherSpec spec;
    spec.method = method;
    spec.scorer.partial.unmapped_penalty = penalty;
    spec.degrade = false;
    std::unique_ptr<Matcher> matcher =
        MakeMatcher(spec, exec::RunBudget{}, nullptr);
    const std::string label = "factory " + matcher->name();
    engines.push_back({label, std::move(matcher)});
  }
  for (const int threads : {1, 3}) {
    ParallelAStarOptions options;
    options.threads = threads;
    options.scorer.partial.unmapped_penalty = penalty;
    engines.push_back({"parallel x" + std::to_string(threads),
                       std::make_unique<ParallelAStarMatcher>(options)});
  }
  return engines;
}

TEST(ExactSearchTest, EveryConfigurationCertifiesTheOracleOptimum) {
  const struct {
    std::size_t decoys;
    bool twins;
    std::size_t interchangeable;  // At least this many.
  } shapes[] = {{0, false, 0}, {3, false, 3}, {0, true, 2}};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const auto& shape : shapes) {
      const MatchingTask task = MakeInstance(seed, shape.decoys, shape.twins);
      const std::vector<Pattern> patterns = PatternsFor(task);
      for (const double penalty : {kInf, 0.3}) {
        MatchingContext oracle_context(task.log1, task.log2, patterns);
        const double optimum =
            BruteForcePartialOptimum(oracle_context, penalty);
        EXPECT_GE(oracle_context.target_symmetry().interchangeable_targets,
                  shape.interchangeable);
        for (const Engine& engine : Engines(penalty)) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " decoys " +
                       std::to_string(shape.decoys) + " twins " +
                       std::to_string(shape.twins) + " penalty " +
                       std::to_string(penalty) + " engine " + engine.label);
          MatchingContext context(task.log1, task.log2, patterns);
          const Result<MatchResult> result = engine.matcher->Match(context);
          ASSERT_TRUE(result.ok()) << result.status();
          EXPECT_EQ(result->termination, TerminationReason::kCompleted);
          EXPECT_TRUE(result->bounds_certified);
          EXPECT_TRUE(result->mapping.IsComplete());
          EXPECT_NEAR(result->objective, optimum, kEps);
          EXPECT_NEAR(result->lower_bound, optimum, kEps);
          EXPECT_NEAR(result->upper_bound, optimum, kEps);
        }
      }
    }
  }
}

// With interchangeable decoys the default search really skips symmetric
// siblings, and processes no more mappings than the paper's search.
TEST(ExactSearchTest, DefaultBreaksDecoySymmetry) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const MatchingTask task = MakeInstance(seed, 3);
    const std::vector<Pattern> patterns = PatternsFor(task);
    MatchingContext fast_context(task.log1, task.log2, patterns);
    const Result<MatchResult> fast = AStarMatcher().Match(fast_context);
    MatchingContext paper_context(task.log1, task.log2, patterns);
    const Result<MatchResult> paper =
        AStarMatcher(PaperAStarOptions(BoundKind::kTight)).Match(paper_context);
    ASSERT_TRUE(fast.ok() && paper.ok());
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_GT(fast_context.SnapshotTelemetry().counter(
                  "pattern_tight.prune.symmetry"),
              0u);
    EXPECT_EQ(paper_context.SnapshotTelemetry().counter(
                  "pattern_tight.prune.symmetry"),
              0u);
    EXPECT_LE(fast->mappings_processed, paper->mappings_processed);
    EXPECT_NEAR(fast->objective, paper->objective, kEps);
  }
}

TEST(ExactSearchTest, ExpansionCapBracketsTheOptimum) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const MatchingTask task = MakeInstance(seed, seed % 2 == 0 ? 3 : 0);
    const std::vector<Pattern> patterns = PatternsFor(task);
    for (const double penalty : {kInf, 0.3}) {
      MatchingContext oracle_context(task.log1, task.log2, patterns);
      const double optimum = BruteForcePartialOptimum(oracle_context, penalty);
      AStarOptions sequential;
      sequential.max_expansions = 4;
      sequential.scorer.partial.unmapped_penalty = penalty;
      ParallelAStarOptions parallel;
      parallel.threads = 2;
      parallel.max_expansions = 4;
      parallel.scorer.partial.unmapped_penalty = penalty;
      const AStarMatcher capped_sequential(sequential);
      const ParallelAStarMatcher capped_parallel(parallel);
      for (const Matcher* matcher :
           std::vector<const Matcher*>{&capped_sequential, &capped_parallel}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " penalty " +
                     std::to_string(penalty) + " " + matcher->name());
        MatchingContext context(task.log1, task.log2, patterns);
        const Result<MatchResult> result = matcher->Match(context);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_EQ(result->termination, TerminationReason::kExpansionCap);
        EXPECT_TRUE(result->bounds_certified);
        EXPECT_TRUE(result->mapping.IsComplete());
        EXPECT_LE(result->objective, optimum + kEps);
        EXPECT_GE(result->objective, result->lower_bound - kEps);
        EXPECT_LE(result->lower_bound, optimum + kEps);
        EXPECT_GE(result->upper_bound, optimum - kEps);
      }
    }
  }
}

}  // namespace
}  // namespace hematch
