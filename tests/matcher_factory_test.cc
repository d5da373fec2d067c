// Tests for the matcher factory: method names and the cancel wiring of
// the ladder. tests/ladder_pin_test.cc pins the rungs every caller gets.

#include "api/matcher_factory.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/matching_context.h"
#include "core/pattern_set.h"
#include "gen/bus_process.h"
#include "graph/dependency_graph.h"

namespace hematch {
namespace {

TEST(MatcherFactoryTest, MethodNamesCoverEveryMethodOnce) {
  const std::vector<MatchMethod> all = MethodsNamed(kAllMethodsName);
  ASSERT_EQ(all.size(), std::size(kMethodNames));
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], kMethodNames[i].method);
    EXPECT_EQ(MethodsNamed(kMethodNames[i].name),
              std::vector<MatchMethod>{kMethodNames[i].method});
  }
  EXPECT_TRUE(MethodsNamed("pattern_tight").empty());
  EXPECT_TRUE(MethodsNamed("").empty());
}

TEST(MatcherFactoryTest, PreCancelledLadderStopsAtTheExactRung) {
  BusProcessOptions workload;
  workload.num_traces = 300;
  const MatchingTask task = MakeBusManufacturerTask(workload);
  for (MatchMethod method :
       {MatchMethod::kPatternTight, MatchMethod::kPatternSimple,
        MatchMethod::kParallelAStar}) {
    SCOPED_TRACE(static_cast<int>(method));
    MatchingContext context(
        task.log1, task.log2,
        BuildPatternSet(DependencyGraph::Build(task.log1),
                        task.complex_patterns));
    MatcherSpec spec;
    spec.method = method;
    spec.search_threads = 2;
    exec::CancelToken cancel;
    cancel.Cancel();
    const std::unique_ptr<Matcher> ladder =
        MakeMatcher(spec, exec::RunBudget{}, &cancel);
    // The ladder alone carries the token: the context is armed without it.
    context.ArmBudget(exec::RunBudget{}, nullptr);
    Result<MatchResult> result = ladder->Match(context);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->termination, exec::TerminationReason::kCancelled);
    ASSERT_EQ(result->stages.size(), 1u);
    EXPECT_EQ(result->stages[0].method, ladder->name());
    EXPECT_EQ(context.metrics().GetCounter("heuristic_advanced.runs")->value(),
              0u);
    EXPECT_EQ(context.metrics().GetCounter("heuristic_simple.runs")->value(),
              0u);
  }
}

}  // namespace
}  // namespace hematch
