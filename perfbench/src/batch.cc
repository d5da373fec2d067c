// The two batch workloads (bus_batch, decoy_search): the CLI path as a
// single caller runs it — log text in memory, the public readers,
// MatchLogs with default options plus the task's complex patterns, and
// WriteMapping — timed per instance from text to serialized mapping.
//
// The traced run (--trace 1) wraps the same calls in spans from this
// file only, then repeats MatchLogs' work on the same parsed logs as
// separate public calls (dependency graph, pattern set, context,
// co-occurrence, the default matcher's Match) to attribute its time.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>

#include "api/fallback_matcher.h"
#include "api/match_pipeline.h"
#include "core/astar_matcher.h"
#include "core/mapping_io.h"
#include "core/matching_context.h"
#include "core/pattern_set.h"
#include "eval/metrics.h"
#include "graph/dependency_graph.h"
#include "instances.h"
#include "obs/trace.h"
#include "pattern/pattern_parser.h"
#include "report.h"
#include "stats.h"
#include "traced.h"

namespace perfbench {

namespace {

using hematch::EventLog;
using hematch::MatchPipelineOutcome;
using hematch::Result;
using hematch::Status;

struct BatchWorkload {
  std::string name;
  /// Instance `index` of the run seeded `seed`.
  std::function<Instance(std::uint64_t seed, std::size_t index)> make;
  /// Fixed arrival rates and latency limit of the single-caller replay
  /// (see Replay); absolute numbers, set once from this workload's
  /// measured capacity (rates at most a third of it, where queueing
  /// amplifies run-to-run drift little).
  double rate_lo_rps = 0.0;
  double rate_hi_rps = 0.0;
  double limit_ms = 0.0;
};

// Instances each run sees at least, traced or not, so that p90 has 10
// samples beyond it and the traced run's per-layer medians come from
// the same stream prefix as the untraced run's end-to-end figures.
constexpr std::size_t kMinInstances = 100;

// Relative tolerance for "the same objective" (different event-id
// orders sum the same terms in a different order).
constexpr double kObjectiveTolerance = 1e-9;

bool SameObjective(double a, double b) {
  return std::abs(a - b) <=
         kObjectiveTolerance * std::max(1.0, std::max(std::abs(a), std::abs(b)));
}

const char* ReadSpanName(LogFormat format) {
  switch (format) {
    case LogFormat::kTr:
      return "log.read_tr";
    case LogFormat::kCsv:
      return "log.read_csv";
    case LogFormat::kXes:
      return "log.read_xes";
  }
  return "log.read";
}

// One pass of the CLI path over one instance.
struct PipelineRun {
  std::optional<EventLog> log1;
  std::optional<EventLog> log2;
  Result<MatchPipelineOutcome> outcome = Status::Internal("not run");
  std::string error;  ///< Non-empty when the pipeline itself failed.
  double ms = 0.0;
  std::size_t csv_salvaged = 0;
};

PipelineRun RunPipeline(const Instance& inst, hematch::obs::TraceRecorder* rec,
                        double instance_id) {
  PipelineRun run;
  const auto start = std::chrono::steady_clock::now();
  {
    hematch::obs::ScopedSpan pipeline(rec, "pipeline", "bench");
    pipeline.AddArg("instance", instance_id);
    Result<EventLog> log1 = Status::Internal("not parsed");
    Result<EventLog> log2 = Status::Internal("not parsed");
    {
      hematch::obs::ScopedSpan span(rec, ReadSpanName(inst.format1), "log");
      log1 = ParseLog(inst.text1, inst.format1, &run.csv_salvaged);
    }
    {
      hematch::obs::ScopedSpan span(rec, ReadSpanName(inst.format2), "log");
      std::size_t salvaged = 0;
      log2 = ParseLog(inst.text2, inst.format2, &salvaged);
      run.csv_salvaged += salvaged;
    }
    if (!log1.ok() || !log2.ok()) {
      run.error = "parse failed: " +
                  (log1.ok() ? log2.status() : log1.status()).ToString();
      return run;
    }
    run.log1.emplace(std::move(log1).value());
    run.log2.emplace(std::move(log2).value());
    hematch::MatchPipelineOptions options;
    options.patterns = inst.patterns;
    {
      hematch::obs::ScopedSpan span(rec, "api.match_logs", "api");
      run.outcome = hematch::MatchLogs(*run.log1, *run.log2, options);
    }
    if (!run.outcome.ok()) {
      run.error = "MatchLogs failed: " + run.outcome.status().ToString();
      return run;
    }
    std::ostringstream out;
    {
      hematch::obs::ScopedSpan span(rec, "output.write", "core");
      const bool swapped = run.outcome->swapped;
      const Status written = hematch::WriteMapping(
          run.outcome->result.mapping,
          (swapped ? *run.log2 : *run.log1).dictionary(),
          (swapped ? *run.log1 : *run.log2).dictionary(), out);
      if (!written.ok()) {
        run.error = "WriteMapping failed: " + written.ToString();
        return run;
      }
    }
  }
  run.ms = MsSince(start);
  return run;
}

// The answer check: certified termination, the reference objective, an
// injective total mapping over the right vocabularies. Returns the
// F-measure against the planted truth, or an error.
Result<double> CheckAnswer(const Instance& inst, const PipelineRun& run) {
  if (!run.error.empty()) {
    return Status::Internal(run.error);
  }
  const MatchPipelineOutcome& out = *run.outcome;
  const hematch::MatchResult& r = out.result;
  if (!r.completed() || !r.bounds_certified) {
    return Status::Internal("exact run did not certify its optimum");
  }
  if (!SameObjective(r.objective, inst.reference_objective)) {
    return Status::Internal("objective " + std::to_string(r.objective) +
                            " differs from reference " +
                            std::to_string(inst.reference_objective));
  }
  const EventLog& source = out.swapped ? *run.log2 : *run.log1;
  const EventLog& target = out.swapped ? *run.log1 : *run.log2;
  const hematch::Mapping& m = r.mapping;
  if (m.num_sources() != source.num_events() ||
      m.num_targets() != target.num_events()) {
    return Status::Internal("mapping is over the wrong vocabularies");
  }
  std::vector<char> used(target.num_events(), 0);
  for (hematch::EventId s = 0; s < m.num_sources(); ++s) {
    const hematch::EventId t = m.TargetOf(s);
    if (t == hematch::kInvalidEventId || t >= used.size() || used[t] != 0) {
      return Status::Internal("mapping is not total and injective");
    }
    used[t] = 1;
  }
  HEMATCH_ASSIGN_OR_RETURN(
      hematch::Mapping truth,
      MappingFromNames(inst.truth, source, target, out.swapped));
  return hematch::EvaluateMapping(m, truth).f_measure;
}

// MatchLogs' work as separate public calls on the same parsed logs.
struct Decomposition {
  double objective = 0.0;
  std::uint64_t mappings_processed = 0;
  std::uint64_t nodes_visited = 0;
  std::size_t pattern_count = 0;
  hematch::obs::TelemetrySnapshot telemetry;
};

Result<Decomposition> Decompose(const EventLog& log1, const EventLog& log2,
                                const std::vector<std::string>& patterns,
                                hematch::obs::TraceRecorder* rec,
                                double instance_id) {
  hematch::obs::ScopedSpan root(rec, "decomposition", "bench");
  root.AddArg("instance", instance_id);
  const bool swapped = log1.num_events() > log2.num_events();
  const EventLog& source = swapped ? log2 : log1;
  const EventLog& target = swapped ? log1 : log2;
  std::optional<hematch::DependencyGraph> graph;
  {
    hematch::obs::ScopedSpan span(rec, "graph.build", "graph");
    graph.emplace(hematch::DependencyGraph::Build(source));
  }
  std::vector<hematch::Pattern> set;
  {
    hematch::obs::ScopedSpan span(rec, "pattern.set", "core");
    std::vector<hematch::Pattern> complex;
    for (const std::string& text : patterns) {
      HEMATCH_ASSIGN_OR_RETURN(hematch::Pattern p,
                               hematch::ParsePattern(text, source.dictionary()));
      complex.push_back(std::move(p));
    }
    set = hematch::BuildPatternSet(*graph, complex);
  }
  Decomposition d;
  d.pattern_count = set.size();
  std::unique_ptr<hematch::MatchingContext> context;
  {
    hematch::obs::ScopedSpan span(rec, "context.build", "core");
    context = std::make_unique<hematch::MatchingContext>(source, target,
                                                         std::move(set));
  }
  // The facade's default matcher: exact Pattern-Tight A* behind the
  // heuristic fallback ladder, under an unlimited budget.
  std::unique_ptr<hematch::Matcher> matcher =
      hematch::FallbackMatcher::ExactWithHeuristicFallbacks(
          hematch::AStarOptions{});
  context->ArmBudget(hematch::exec::RunBudget{}, nullptr);
  Result<hematch::MatchResult> result = Status::Internal("not run");
  {
    hematch::obs::ScopedSpan span(rec, "search.match", "core");
    result = matcher->Match(*context);
  }
  if (!result.ok()) {
    return result.status();
  }
  {
    hematch::obs::ScopedSpan span(rec, "freq.cooc_build", "freq");
    context->cooccurrence2();
  }
  d.objective = result->objective;
  d.mappings_processed = result->mappings_processed;
  d.nodes_visited = result->nodes_visited;
  d.telemetry = context->SnapshotTelemetry();
  return d;
}

// Latency a single FIFO caller would see feeding the measured
// per-instance times at Poisson rate `rate_rps`: p50 and p95 of the
// sojourn time over a long seeded replay (service times resampled
// from the measured ones).
struct Replay {
  std::vector<double> unit_gaps;  ///< Exp(1) inter-arrival gaps.
  std::vector<double> service_ms;

  Replay(const std::vector<double>& samples, std::uint64_t seed) {
    constexpr std::size_t kArrivals = 20000;
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(1.0);
    std::uniform_int_distribution<std::size_t> pick(0, samples.size() - 1);
    for (std::size_t i = 0; i < kArrivals; ++i) {
      unit_gaps.push_back(gap(rng));
      service_ms.push_back(samples[pick(rng)]);
    }
  }

  std::vector<double> Sojourn(double rate_rps) const {
    std::vector<double> arrivals;
    arrivals.reserve(unit_gaps.size());
    double t = 0.0;
    for (double g : unit_gaps) {
      t += g * 1000.0 / rate_rps;
      arrivals.push_back(t);
    }
    return FifoSojourn(arrivals, service_ms);
  }

  // Highest rate whose p95 sojourn stays within `limit_ms`, below the
  // replay's capacity (a growing backlog never meets a limit for long).
  double MaxRate(double limit_ms) const {
    const double capacity = 1000.0 / Mean(service_ms);
    double lo = 0.0;
    double hi = capacity;
    for (int i = 0; i < 50; ++i) {
      const double mid = 0.5 * (lo + hi);
      const double p95 = *Percentile(Sojourn(mid), 95.0);
      (p95 <= limit_ms ? lo : hi) = mid;
    }
    return lo;
  }
};

// The run's instances in order: a prefix generated during set-up, then
// one fresh instance per step. Every instance gets its answer key as it
// is handed out, and later instances are generated then too, all
// outside the timed regions. Every instance is distinct, so the figures
// average over many inputs rather than cycling a few. Tallies the input
// properties of everything it hands out.
class InstanceStream {
 public:
  // Instances generated by one set-up.
  static constexpr std::size_t kPrefix = 48;

  InstanceStream(const BatchWorkload& w, std::uint64_t seed)
      : w_(w), seed_(seed) {}

  /// Generates the prefix's log text; this is what setup_s times.
  void SetUp() {
    prefix_.clear();
    for (std::size_t i = 0; i < kPrefix; ++i) {
      prefix_.push_back(Make(i));
    }
  }

  Result<Instance> Next() {
    const std::size_t i = next_++;
    Instance inst = i < prefix_.size() ? std::move(prefix_[i]) : Make(i);
    HEMATCH_RETURN_IF_ERROR(AddAnswerKey(inst));
    Tally(inst);
    return inst;
  }

  /// Prints the input-property record of the instances handed out.
  void Report() const;

 private:
  Instance Make(std::size_t i) { return w_.make(MixSeed(seed_, i), i); }
  void Tally(const Instance& inst);

  const BatchWorkload& w_;
  std::uint64_t seed_;
  std::vector<Instance> prefix_;
  std::size_t next_ = 0;
  // Input-property sums over the instances handed out.
  double n_ = 0, events_ = 0, traces_ = 0, patterns_ = 0, decoys_ = 0;
  double distinct_ = 0;
  std::map<LogFormat, std::pair<double, double>> bytes_;  // sum, count
  std::map<std::string, int> kinds_;
};

void InstanceStream::Tally(const Instance& inst) {
  n_ += 1;
  events_ += static_cast<double>(inst.props.events1 + inst.props.events2);
  traces_ += static_cast<double>(inst.props.traces1 + inst.props.traces2);
  patterns_ += static_cast<double>(inst.props.patterns);
  decoys_ += static_cast<double>(inst.props.decoys);
  distinct_ += static_cast<double>(inst.props.distinct1 + inst.props.distinct2);
  for (const auto& [format, text] : {std::pair{inst.format1, &inst.text1},
                                     std::pair{inst.format2, &inst.text2}}) {
    bytes_[format].first += static_cast<double>(text->size());
    bytes_[format].second += 1.0;
  }
  ++kinds_[inst.kind];
}

void InstanceStream::Report() const {
  if (n_ == 0) return;
  std::string mix;
  for (const auto& [kind, count] : kinds_) {
    mix += " " + kind + "x" + std::to_string(count);
  }
  auto mean_bytes = [&](LogFormat f) {
    auto it = bytes_.find(f);
    return it == bytes_.end() ? 0.0 : it->second.first / it->second.second;
  };
  std::ostringstream line;
  line << "inputs: " << n_ << " instances (" << mix.substr(1)
       << "); mean events/log " << events_ / (2 * n_) << ", traces/log "
       << traces_ / (2 * n_) << ", patterns " << patterns_ / n_
       << ", decoys " << decoys_ / n_ << "; bytes/log tr "
       << mean_bytes(LogFormat::kTr) << " csv " << mean_bytes(LogFormat::kCsv)
       << " xes " << mean_bytes(LogFormat::kXes)
       << "; distinct-variant share " << distinct_ / traces_;
  perfbench::Report::Info(line.str());
}

void RunUntraced(const BatchWorkload& w, InstanceStream& stream,
                 const RunArgs& args, Report& report) {
  RequestTally tally;     // Failures count as missing every limit.
  std::vector<double> ms; // Successful instances only.
  std::vector<double> f_measures;
  std::map<std::string, std::vector<double>> by_kind;
  // Peak RSS of each match: the kernel's high-water mark is reset before
  // every instance, so the median is not decided by the run's single
  // largest search.
  std::vector<double> peak_mb;
  bool peak_reset = true;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0;
       MsSince(start) < args.seconds * 1000.0 || i < kMinInstances; ++i) {
    Result<Instance> next = stream.Next();
    if (!next.ok()) {
      report.Fail("input generation failed: " + next.status().ToString());
      return;
    }
    const Instance& inst = *next;
    // Return freed heap first, so one instance's peak does not include
    // what an earlier, larger search left in the allocator.
    malloc_trim(0);
    peak_reset = ResetPeakRss() && peak_reset;
    const PipelineRun run = RunPipeline(inst, nullptr, 0.0);
    peak_mb.push_back(PeakRssMb());
    const Result<double> f = CheckAnswer(inst, run);
    if (!f.ok()) {
      tally.AddFailure();
      report.Fail(w.name + " instance " + std::to_string(i) + " (" +
                  inst.kind + "): " + f.status().ToString());
      continue;
    }
    tally.AddSuccess(run.ms);
    ms.push_back(run.ms);
    by_kind[inst.kind].push_back(run.ms);
    f_measures.push_back(*f);
  }
  std::ostringstream kinds;
  kinds << "p50 by kind:";
  for (const auto& [kind, v] : by_kind) {
    kinds << " " << kind << " " << *Percentile(v, 50.0, 1) << " ms (n="
          << v.size() << ")";
  }
  Report::Info(kinds.str());
  report.attempted += tally.attempted;
  report.failed += tally.failed;
  const std::optional<double> p50 = Percentile(tally.latencies_ms, 50.0, 1);
  const std::optional<double> p90 = Percentile(tally.latencies_ms, 90.0);
  if (!p50 || !p90 || ms.empty()) {
    report.Fail("too few instances for p90 (" +
                std::to_string(tally.attempted) + ")");
    return;
  }
  double total_ms = 0.0;
  for (double m : ms) {
    total_ms += m;
  }
  report.Set("match_ms_p50", *p50);
  report.Set("match_ms_p90", *p90);
  report.Set("matches_per_s", 1000.0 * static_cast<double>(ms.size()) / total_ms);
  report.Set("peak_rss_mb", *Percentile(peak_mb, 50.0, 1));
  if (!peak_reset) {
    Report::Info("peak RSS could not be reset per instance: "
                 "peak_rss_mb is the run's lifetime peak");
  }
  report.Set("f_measure", Mean(f_measures));
  report.Set("success_share", 1.0 - tally.FailedShare());

  const Replay replay(ms, MixSeed(args.seed, 0x5e));
  const std::vector<double> lo = replay.Sojourn(w.rate_lo_rps);
  const std::vector<double> hi = replay.Sojourn(w.rate_hi_rps);
  report.Set("rate_lo.p50_ms", *Percentile(lo, 50.0, 1));
  report.Set("rate_lo.p95_ms", *Percentile(lo, 95.0));
  report.Set("rate_hi.p50_ms", *Percentile(hi, 50.0, 1));
  report.Set("rate_hi.p95_ms", *Percentile(hi, 95.0));
  report.Set("max_rate_rps", replay.MaxRate(w.limit_ms));
  const double tail = HighestTailPercentile(ms.size()).value_or(50.0);
  std::ostringstream line;
  line << w.name << ": " << ms.size() << " instances, p50 " << *p50
       << " ms, p90 " << *p90 << " ms, p" << tail << " "
       << *Percentile(ms, tail) << " ms; replay at " << w.rate_lo_rps << "/"
       << w.rate_hi_rps << " rps, limit " << w.limit_ms << " ms";
  Report::Info(line.str());
}

// Per-instance medians of the per-layer counters and times.
struct LayerSamples {
  std::map<std::string, std::vector<double>> values;
  void Add(const std::string& name, double v) { values[name].push_back(v); }
  double Median(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() || it->second.empty()
               ? 0.0
               : *Percentile(it->second, 50.0, 1);
  }
  double Sum(const std::string& name) const {
    auto it = values.find(name);
    double s = 0.0;
    if (it != values.end()) {
      for (double v : it->second) s += v;
    }
    return s;
  }
};

void RunTraced(const BatchWorkload& w, InstanceStream& stream,
               const RunArgs& args, Report& report) {
  auto recorder = std::make_unique<hematch::obs::TraceRecorder>();
  LayerSamples samples;
  std::vector<double> trace_ratio;
  std::vector<double> plain_ms;  // Untraced passes, for the layer shares.
  double bytes_parsed = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0;
       MsSince(start) < args.seconds * 1000.0 || i < kMinInstances; ++i) {
    Result<Instance> next = stream.Next();
    if (!next.ok()) {
      report.Fail("input generation failed: " + next.status().ToString());
      return;
    }
    const Instance& inst = *next;
    const double id = static_cast<double>(i);
    // An untraced and a traced pass over the same instance, in
    // alternating order: their ratio is the tracing overhead.
    std::optional<PipelineRun> plain_first;
    if (i % 2 == 0) plain_first.emplace(RunPipeline(inst, nullptr, id));
    const PipelineRun run = RunPipeline(inst, recorder.get(), id);
    const PipelineRun plain =
        plain_first ? std::move(*plain_first) : RunPipeline(inst, nullptr, id);
    ++report.attempted;
    const Result<double> f = CheckAnswer(inst, run);
    const Result<double> f_plain = CheckAnswer(inst, plain);
    if (!f.ok() || !f_plain.ok()) {
      ++report.failed;
      report.Fail(w.name + " traced instance " + std::to_string(i) + ": " +
                  (f.ok() ? f_plain.status() : f.status()).ToString());
      continue;
    }
    trace_ratio.push_back(run.ms / plain.ms);
    plain_ms.push_back(plain.ms);
    bytes_parsed += static_cast<double>(inst.text1.size() + inst.text2.size());
    samples.Add("log.csv_salvaged", static_cast<double>(run.csv_salvaged));

    const Result<Decomposition> d =
        Decompose(*run.log1, *run.log2, inst.patterns, recorder.get(), id);
    if (!d.ok()) {
      report.Fail("decomposition failed: " + d.status().ToString());
      continue;
    }
    // Parity: the layer-by-layer calls must do what MatchLogs did.
    const hematch::MatchResult& r = run.outcome->result;
    if (!SameObjective(d->objective, r.objective) ||
        d->mappings_processed != r.mappings_processed) {
      report.Fail("decomposition parity: MatchLogs objective " +
                  std::to_string(r.objective) + " / " +
                  std::to_string(r.mappings_processed) +
                  " mappings, layer calls " + std::to_string(d->objective) +
                  " / " + std::to_string(d->mappings_processed));
      continue;
    }
    const hematch::obs::TelemetrySnapshot& t = run.outcome->telemetry;
    samples.Add("freq2.evaluations",
                static_cast<double>(t.counter("freq2.evaluations")));
    samples.Add("freq2.cache_hits",
                static_cast<double>(t.counter("freq2.cache_hits")));
    samples.Add("freq2.cache_misses",
                static_cast<double>(t.counter("freq2.cache_misses")));
    samples.Add("freq2.traces_scanned",
                static_cast<double>(t.counter("freq2.traces_scanned")));
    samples.Add("freq2.path.bitmap",
                static_cast<double>(t.counter("freq2.path.bitmap")));
    samples.Add("freq2.path.all",
                static_cast<double>(t.counter("freq2.path.bitmap") +
                                    t.counter("freq2.path.postings") +
                                    t.counter("freq2.path.fullscan")));
    samples.Add("existence.checks",
                static_cast<double>(t.counter("existence.checks")));
    samples.Add("existence.pruned",
                static_cast<double>(t.counter("existence.pruned")));
    samples.Add("api.fallbacks",
                static_cast<double>(t.counter("pipeline.fallbacks")));
    const std::string slug = "pattern_tight.";
    samples.Add("search.open_list_peak", t.gauge(slug + "open_list_peak"));
    for (const char* kind : {"bound", "dominance", "symmetry", "existence"}) {
      samples.Add(std::string("search.prune.") + kind,
                  static_cast<double>(t.counter(slug + "prune." + kind)));
    }
    samples.Add("search.mappings_processed",
                static_cast<double>(d->mappings_processed));
    samples.Add("search.nodes_visited", static_cast<double>(d->nodes_visited));
    samples.Add("pattern.count", static_cast<double>(d->pattern_count));
    samples.Add("freq.precompute_ms", static_cast<double>(d->telemetry.counter(
                                          "freq.precompute.ms")));
  }

  // Self times of this file's spans, per span name and instance.
  std::map<std::string, std::map<double, double>> self_by_instance;
  for (const SpanRecord& s : CollectSpans(*recorder)) {
    self_by_instance[s.name][s.instance] += s.self_ms;
  }
  auto median_self = [&](const std::string& name) {
    std::vector<double> v;
    for (const auto& [instance, ms] : self_by_instance[name]) {
      v.push_back(ms);
    }
    return v.empty() ? 0.0 : *Percentile(v, 50.0, 1);
  };
  auto total_self = [&](const std::string& name) {
    double total = 0.0;
    for (const auto& [instance, ms] : self_by_instance[name]) {
      total += ms;
    }
    return total;
  };
  report.Set("log.read_tr_ms", median_self("log.read_tr"));
  report.Set("log.read_csv_ms", median_self("log.read_csv"));
  report.Set("log.read_xes_ms", median_self("log.read_xes"));
  const double parse_ms = total_self("log.read_tr") +
                          total_self("log.read_csv") +
                          total_self("log.read_xes");
  report.Set("log.mb_per_s", parse_ms > 0.0 ? bytes_parsed / 1e6 /
                                                  (parse_ms / 1000.0)
                                            : 0.0);
  report.Set("log.csv_salvaged", samples.Sum("log.csv_salvaged"));
  report.Set("graph.build_ms", median_self("graph.build"));
  report.Set("pattern.set_ms", median_self("pattern.set"));
  report.Set("pattern.count", samples.Median("pattern.count"));
  report.Set("context.build_ms", median_self("context.build"));
  report.Set("freq.precompute_ms", samples.Median("freq.precompute_ms"));
  report.Set("freq.cooc_build_ms", median_self("freq.cooc_build"));
  report.Set("freq2.evaluations", samples.Median("freq2.evaluations"));
  const double lookups =
      samples.Sum("freq2.cache_hits") + samples.Sum("freq2.cache_misses");
  report.Set("freq2.cache_hit_ratio",
             lookups > 0 ? samples.Sum("freq2.cache_hits") / lookups : 0.0);
  report.Set("freq2.traces_scanned", samples.Median("freq2.traces_scanned"));
  const double paths = samples.Sum("freq2.path.all");
  report.Set("freq2.bitmap_share",
             paths > 0 ? samples.Sum("freq2.path.bitmap") / paths : 0.0);
  const double checks = samples.Sum("existence.checks");
  report.Set("existence.prune_ratio",
             checks > 0 ? samples.Sum("existence.pruned") / checks : 0.0);
  const double search_ms = median_self("search.match");
  report.Set("search.match_ms", search_ms);
  report.Set("search.mappings_processed",
             samples.Median("search.mappings_processed"));
  report.Set("search.nodes_visited", samples.Median("search.nodes_visited"));
  const double search_total = total_self("search.match");
  report.Set("search.mappings_per_ms",
             search_total > 0
                 ? samples.Sum("search.mappings_processed") / search_total
                 : 0.0);
  report.Set("search.open_list_peak", samples.Median("search.open_list_peak"));
  for (const char* kind : {"bound", "dominance", "symmetry", "existence"}) {
    const std::string name = std::string("search.prune.") + kind;
    report.Set(name, samples.Median(name));
  }
  report.Set("api.match_logs_ms", median_self("api.match_logs"));
  // What MatchLogs spends outside the public pieces it is built from.
  std::vector<double> unattributed;
  for (const auto& [instance, ms] : self_by_instance["api.match_logs"]) {
    unattributed.push_back(
        ms - self_by_instance["graph.build"][instance] -
        self_by_instance["pattern.set"][instance] -
        self_by_instance["context.build"][instance] -
        self_by_instance["search.match"][instance]);
  }
  report.Set("api.unattributed_ms",
             unattributed.empty() ? 0.0 : *Percentile(unattributed, 50.0, 1));
  report.Set("api.fallbacks", samples.Sum("api.fallbacks"));
  report.Set("output.write_ms", median_self("output.write"));
  if (!trace_ratio.empty()) {
    report.Set("trace.overhead_share",
               *Percentile(trace_ratio, 50.0, 1) - 1.0);
    // The chosen layers' medians as shares of this run's own untraced
    // pipeline median, over the same instances.
    const double pipeline_ms = *Percentile(plain_ms, 50.0, 1);
    std::map<double, double> read_by_instance;
    for (const char* name : {"log.read_tr", "log.read_csv", "log.read_xes"}) {
      for (const auto& [instance, ms] : self_by_instance[name]) {
        read_by_instance[instance] += ms;
      }
    }
    std::vector<double> read_ms;
    for (const auto& [instance, ms] : read_by_instance) {
      read_ms.push_back(ms);
    }
    const double log_ms = *Percentile(read_ms, 50.0, 1);
    std::ostringstream line;
    line << w.name << " traced: " << plain_ms.size()
         << " instances, untraced pipeline p50 " << pipeline_ms
         << " ms; shares of it: log.* " << log_ms / pipeline_ms
         << ", context.build " << median_self("context.build") / pipeline_ms
         << ", search.match " << search_ms / pipeline_ms;
    Report::Info(line.str());
  }
  WriteSpanFile(*recorder, args, report);
}

void RunBatch(const BatchWorkload& w, const RunArgs& args, Report& report) {
  // Set-up (generating the first instances' log text) is repeated and
  // its median reported, so that work moved into set-up shows; the last
  // set-up is the one measured.
  constexpr int kSetups = 7;
  std::vector<double> setup_s;
  InstanceStream stream(w, args.seed);
  for (int k = 0; k < kSetups; ++k) {
    const auto start = std::chrono::steady_clock::now();
    stream.SetUp();
    setup_s.push_back(MsSince(start) / 1000.0);
  }
  report.Set("setup_s", *Percentile(setup_s, 50.0, 1));
  if (args.trace) {
    RunTraced(w, stream, args, report);
  } else {
    RunUntraced(w, stream, args, report);
  }
  stream.Report();
}

}  // namespace

void RunBusBatch(const RunArgs& args, Report& report) {
  BatchWorkload w;
  w.name = "bus_batch";
  w.make = [](std::uint64_t seed, std::size_t i) {
    // log2 is CSV for two instances in three and XES for the third;
    // every other triple has log2 through drop/dup/swap noise.
    BusSpec spec;
    spec.traces = 3000;
    spec.format2 = i % 3 == 2 ? LogFormat::kXes : LogFormat::kCsv;
    spec.corrupt = (i / 3) % 2 == 1;
    return MakeBusInstance(spec, seed);
  };
  w.rate_lo_rps = 3.0;
  w.rate_hi_rps = 6.0;
  w.limit_ms = 400.0;
  RunBatch(w, args, report);
  if (args.trace && report.correct()) {
    MeasureServeLayers(args, report);
  }
}

void RunDecoySearch(const RunArgs& args, Report& report) {
  BatchWorkload w;
  w.name = "decoy_search";
  w.make = [](std::uint64_t seed, std::size_t i) {
    // Two bus pairs with 14 decoy labels on the log2 side to every
    // 14-event repeated-structure synthetic pair. Unequal shares keep
    // the median inside the bus pairs' spread rather than in the gap
    // between two kinds; more decoys make the tail heavier and leave
    // too few instances per run for a steady p90.
    if (i % 3 != 2) {
      return MakeBusInstance({3000, 14, false, LogFormat::kTr}, seed);
    }
    return MakeSyntheticInstance({14, 2000}, seed);
  };
  w.rate_lo_rps = 1.2;
  w.rate_hi_rps = 2.5;
  w.limit_ms = 1000.0;
  RunBatch(w, args, report);
}

}  // namespace perfbench
