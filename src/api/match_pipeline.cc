#include "api/match_pipeline.h"

#include <memory>

#include "api/matcher_factory.h"
#include "core/matching_context.h"
#include "core/pattern_set.h"
#include "exec/portfolio.h"
#include "exec/watchdog.h"
#include "gen/pattern_miner.h"
#include "graph/dependency_graph.h"
#include "pattern/pattern_parser.h"

namespace hematch {

Result<MatchPipelineOutcome> MatchLogs(const EventLog& log1,
                                       const EventLog& log2,
                                       const MatchPipelineOptions& options) {
  MatchPipelineOutcome outcome;
  // Orientation: the mapping is injective source -> target, so the
  // smaller vocabulary is the source.
  const bool swapped = log1.num_events() > log2.num_events();
  outcome.swapped = swapped;
  const EventLog& source = swapped ? log2 : log1;
  const EventLog& target = swapped ? log1 : log2;

  obs::TraceRecorder* recorder = options.trace_recorder.get();
  std::vector<Pattern> complex;
  {
    obs::ScopedSpan pattern_span(recorder, "pipeline.patterns", "api");
    for (const std::string& text : options.patterns) {
      HEMATCH_ASSIGN_OR_RETURN(Pattern p,
                               ParsePattern(text, source.dictionary()));
      outcome.used_patterns.push_back(p.ToString(&source.dictionary()));
      complex.push_back(std::move(p));
    }
    if (options.mine_patterns) {
      PatternMinerOptions miner;
      miner.min_support = options.mine_min_support;
      for (Pattern& p : MineDiscriminativePatterns(source, miner)) {
        outcome.used_patterns.push_back(p.ToString(&source.dictionary()));
        complex.push_back(std::move(p));
      }
    }
    pattern_span.AddArg("patterns", static_cast<double>(complex.size()));
    pattern_span.AddArg("mined", options.mine_patterns ? 1.0 : 0.0);
  }

  const DependencyGraph g1 = DependencyGraph::Build(source);

  MatcherSpec spec;
  spec.method = options.method;
  spec.scorer = options.scorer;
  spec.max_expansions = options.max_expansions;
  spec.search_threads = options.search_threads;
  spec.degrade = options.degrade;
  if (options.portfolio && IsExactMethod(options.method)) {
    // Hedged mode: race the exact matcher and both heuristics on worker
    // threads instead of laddering them. The runner owns its own state
    // (log copies, contexts, registry) so abandoned stragglers are
    // safe; we just translate its outcome into the pipeline's shape.
    exec::PortfolioOptions popts;
    popts.budget = options.budget;
    popts.threads = options.portfolio_threads;
    popts.external_cancel = options.cancel;
    popts.telemetry = options.telemetry;
    popts.trace_recorder = options.trace_recorder;
    popts.heartbeat_ms = options.heartbeat_ms;
    popts.heartbeat = options.heartbeat;
    exec::PortfolioRunner runner(MakeRaceCard(spec), popts);
    HEMATCH_ASSIGN_OR_RETURN(
        exec::PortfolioOutcome portfolio,
        runner.Run(source, target, BuildPatternSet(g1, complex)));
    outcome.result = std::move(portfolio.result);
    outcome.termination = outcome.result.termination;
    // Every strategy always runs in a race, so the ladder's "more than
    // one stage ran" degradation test is meaningless here; degraded
    // means the race ended without a certified-complete answer.
    outcome.degraded =
        outcome.termination != exec::TerminationReason::kCompleted;
    outcome.telemetry = std::move(portfolio.telemetry);
    return outcome;
  }

  ContextTelemetryOptions telemetry;
  telemetry.enabled = options.telemetry;
  telemetry.tracer = options.tracer;
  telemetry.trace_recorder = recorder;
  MatchingContext context(source, target, BuildPatternSet(g1, complex),
                          telemetry);
  std::unique_ptr<Matcher> matcher =
      MakeMatcher(spec, options.budget, options.cancel);
  if (matcher == nullptr) {
    return Status::InvalidArgument("unknown match method");
  }
  // Heartbeat clock for the sequential path (the portfolio path rides
  // its own watchdog): deadline-less, beats only. Joined (reset) before
  // the final snapshot so the last beat cannot race it.
  std::unique_ptr<exec::Watchdog> heartbeat_clock;
  if (options.heartbeat_ms > 0.0 && options.heartbeat) {
    exec::WatchdogOptions wd;
    wd.heartbeat_ms = options.heartbeat_ms;
    wd.heartbeat = [&context, &options](std::uint64_t seq) {
      options.heartbeat(seq, context.SnapshotTelemetry());
    };
    heartbeat_clock = std::make_unique<exec::Watchdog>(std::move(wd));
  }
  // Arm the run budget; fallback ladders re-arm with their remaining
  // slice per stage, everything else runs under this one.
  context.ArmBudget(options.budget, options.cancel);
  HEMATCH_ASSIGN_OR_RETURN(outcome.result, matcher->Match(context));
  heartbeat_clock.reset();
  outcome.termination = outcome.result.termination;
  outcome.degraded = outcome.result.degraded();
  outcome.telemetry = context.SnapshotTelemetry();
  return outcome;
}

}  // namespace hematch
