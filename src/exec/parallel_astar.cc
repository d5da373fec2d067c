#include "exec/parallel_astar.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "core/match_telemetry.h"
#include "exec/budget.h"
#include "freq/pattern_key.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"

namespace hematch::exec {

namespace {

using internal::MixBits;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

struct PNode {
  Mapping mapping{0, 0};
  double g = 0.0;
  double h = 0.0;
  /// Inherited upper bound on any completion: min over ancestors of
  /// their f. Valid even while `h_valid` is false (mailbox transit), so
  /// the anytime exit can certify an upper bound without evaluating h
  /// for in-flight nodes.
  double bound = std::numeric_limits<double>::infinity();
  std::uint64_t signature = 0;
  std::uint64_t sequence = 0;
  std::uint32_t depth = 0;
  /// True when this node lives outside its signature's owning worker
  /// (mailbox overflow keep-local, or a steal). Foreign nodes skip the
  /// local dominance table — sound, since dominance only removes work.
  bool foreign = false;
  bool h_valid = false;

  double f() const { return g + h; }
};

// Same ordering contract as the sequential matcher: max-heap on f,
// deeper first, then the canonical lexicographic mapping key.
struct PNodeLess {
  bool operator()(const PNode& a, const PNode& b) const {
    if (a.f() != b.f()) return a.f() < b.f();
    if (a.depth != b.depth) return a.depth < b.depth;
    const int lex = Mapping::LexCompare(a.mapping, b.mapping);
    if (lex != 0) return lex > 0;
    return a.sequence > b.sequence;
  }
};

/// Bounded MPSC-ish mailbox. The mutex guards a deque for microseconds
/// per operation; consumers are the owning worker plus occasional
/// thieves, so plain locking is simpler than a lock-free ring and never
/// shows up in profiles next to h evaluation.
class Mailbox {
 public:
  void set_capacity(std::size_t cap) { capacity_ = cap; }

  /// Moves `node` in on success; leaves it untouched when full.
  bool TryPush(PNode& node) {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= capacity_) {
      return false;
    }
    queue_.push_back(std::move(node));
    return true;
  }

  bool TryPop(PNode& out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) {
      return false;
    }
    out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::size_t capacity_ = 4096;
  std::deque<PNode> queue_;
};

struct alignas(64) PaddedSize {
  std::atomic<std::size_t> value{0};
};

/// Everything the workers and the governing main thread share.
struct Runtime {
  MatchingContext* context = nullptr;
  const ParallelAStarOptions* options = nullptr;
  SearchPlan plan;
  const TargetSymmetry* symmetry = nullptr;  // Null without symmetry breaking.
  SearchTelemetry telem;
  obs::TraceRecorder* recorder = nullptr;
  obs::SpanId match_span_id = 0;
  int num_workers = 1;
  std::size_t node_bytes = 0;

  std::vector<Mailbox> mailboxes;
  std::unique_ptr<PaddedSize[]> dom_sizes;

  /// Nodes alive in any open list or mailbox (plus the one a worker is
  /// currently expanding). Children register before the parent retires,
  /// so 0 certifies global exhaustion.
  std::atomic<std::uint64_t> pending{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> drained{false};
  std::atomic<bool> cap_tripped{false};
  std::atomic<int> done_workers{0};
  std::atomic<std::uint64_t> total_expansions{0};
  std::atomic<std::uint64_t> total_pops{0};
  /// Read-mostly cache of the incumbent objective for bound pruning;
  /// the mapping itself (and the authoritative value) lives behind
  /// `incumbent_mu`.
  std::atomic<double> incumbent{kNegInf};
  /// Latest popped f, any worker — telemetry only.
  std::atomic<double> frontier_f{kNegInf};

  std::mutex incumbent_mu;
  bool has_incumbent = false;
  double incumbent_value = kNegInf;
  Mapping incumbent_mapping{0, 0};

  std::mutex export_mu;
  std::vector<PNode> exported;  ///< Per-worker best frontier node at exit.
  double export_upper = kNegInf;

  obs::Counter* handoffs = nullptr;
  obs::Counter* steals = nullptr;
  obs::Counter* mailbox_full = nullptr;
  obs::Counter* incumbent_updates = nullptr;

  std::size_t Owner(std::uint64_t signature) const {
    return static_cast<std::size_t>(MixBits(signature ^ 0x70617261ull) >> 32) %
           static_cast<std::size_t>(num_workers);
  }

  /// Records `g` (and its mapping) as the incumbent when it improves —
  /// or ties with a lexicographically smaller mapping, so every thread
  /// count converges on the same canonical optimal mapping.
  void OfferIncumbent(const Mapping& m, double g) {
    if (g < incumbent.load(std::memory_order_relaxed)) {
      return;
    }
    std::lock_guard<std::mutex> lock(incumbent_mu);
    const bool better =
        !has_incumbent || g > incumbent_value ||
        (g == incumbent_value && Mapping::LexCompare(m, incumbent_mapping) < 0);
    if (!better) {
      return;
    }
    has_incumbent = true;
    incumbent_value = g;
    incumbent_mapping = m;
    incumbent.store(g, std::memory_order_relaxed);
    incumbent_updates->Increment();
  }
};

void WorkerLoop(Runtime& rt, int w) {
  if (rt.recorder != nullptr) {
    rt.recorder->SetThreadName("pastar-worker-" + std::to_string(w));
  }
  obs::ScopedSpan worker_span(rt.recorder,
                              "pastar.worker." + std::to_string(w), "exec",
                              rt.match_span_id);
  MatchingContext& context = *rt.context;
  MappingScorer scorer(context, rt.options->scorer);
  const SearchPlan& plan = rt.plan;
  const std::size_t n1 = plan.num_sources;
  const std::size_t n2 = plan.num_targets;
  const bool partial = rt.options->scorer.partial.enabled();
  const double unmapped_penalty = rt.options->scorer.partial.unmapped_penalty;
  const bool use_dominance = rt.options->reductions.dominance_pruning;
  const bool use_symmetry = rt.options->reductions.symmetry_breaking;
  const std::uint64_t max_expansions = rt.options->max_expansions;

  std::priority_queue<PNode, std::vector<PNode>, PNodeLess> open;
  DominanceTable dominance;
  std::uint64_t sequence = 0;
  std::uint64_t expanded_nodes = 0;

  // Admits a node this worker now owns (routed, kept-local, or stolen)
  // into the local open list, or retires it via dominance/bound
  // pruning. The node's `pending` registration is consumed on prune.
  auto ingest = [&](PNode&& node) {
    if (!node.foreign && use_dominance) {
      if (dominance.IsDominated(node.signature, node.g)) {
        rt.telem.prune_dominance->Increment();
        rt.pending.fetch_sub(1, std::memory_order_release);
        return;
      }
      rt.dom_sizes[w].value.store(dominance.size(),
                                  std::memory_order_relaxed);
    }
    if (!node.h_valid) {
      node.h = scorer.ComputeHForRemaining(node.mapping,
                                           plan.remaining_after[node.depth]);
      node.h_valid = true;
      node.bound = std::min(node.bound, node.f());
    }
    if (node.f() <= rt.incumbent.load(std::memory_order_relaxed)) {
      rt.telem.prune_bound->Increment();
      rt.pending.fetch_sub(1, std::memory_order_release);
      return;
    }
    node.sequence = sequence++;
    open.push(std::move(node));
  };

  while (!rt.stop.load(std::memory_order_relaxed)) {
    PNode msg;
    while (rt.mailboxes[w].TryPop(msg)) {
      ingest(std::move(msg));
    }
    if (!open.empty() &&
        open.top().f() <= rt.incumbent.load(std::memory_order_relaxed)) {
      // The heap is f-ordered, so the top bounds every entry: the whole
      // list is refuted by the incumbent at once. Retiring it in bulk
      // (instead of popping each node into the bound prune) is what
      // makes the post-optimum drain O(n) instead of O(n log n) heap
      // comparisons.
      const std::size_t refuted = open.size();
      rt.telem.prune_bound->Increment(refuted);
      rt.pending.fetch_sub(static_cast<std::uint64_t>(refuted),
                           std::memory_order_release);
      open = std::priority_queue<PNode, std::vector<PNode>, PNodeLess>();
    }
    if (open.empty()) {
      bool got = false;
      for (int i = 1; i < rt.num_workers && !got; ++i) {
        Mailbox& victim = rt.mailboxes[(w + i) % rt.num_workers];
        if (victim.TryPop(msg)) {
          msg.foreign = true;  // Another worker's signature space.
          rt.steals->Increment();
          ingest(std::move(msg));
          got = true;
        }
      }
      if (got) {
        continue;
      }
      if (rt.pending.load(std::memory_order_acquire) == 0) {
        // Nothing alive anywhere: every node was expanded or soundly
        // pruned, so the incumbent is the certified optimum.
        rt.drained.store(true, std::memory_order_release);
        rt.stop.store(true, std::memory_order_release);
        break;
      }
      std::this_thread::yield();
      continue;
    }

    PNode node = open.top();
    open.pop();
    rt.total_pops.fetch_add(1, std::memory_order_relaxed);
    rt.frontier_f.store(node.f(), std::memory_order_relaxed);
    rt.telem.expansion_depth->Observe(static_cast<double>(node.depth));
    if (node.depth == n1) {
      rt.OfferIncumbent(node.mapping, node.g);
      rt.pending.fetch_sub(1, std::memory_order_release);
      continue;
    }
    if (!node.foreign && use_dominance &&
        dominance.IsStale(node.signature, node.g)) {
      rt.telem.prune_dominance->Increment();
      rt.pending.fetch_sub(1, std::memory_order_release);
      continue;
    }
    if (node.f() <= rt.incumbent.load(std::memory_order_relaxed)) {
      rt.telem.prune_bound->Increment();
      rt.pending.fetch_sub(1, std::memory_order_release);
      continue;
    }
    rt.telem.bound_gap_trajectory->Observe(
        node.f() - std::max(rt.incumbent.load(std::memory_order_relaxed),
                            0.0));
    ++expanded_nodes;

    const EventId source = plan.order[node.depth];
    const std::uint32_t child_depth = node.depth + 1;
    std::uint64_t children = 0;
    bool aborted = false;

    // Registers `child` (already g-scored and signed) with the
    // termination counter and routes it to its signature's owner.
    auto dispatch = [&](PNode&& child) {
      child.bound = node.f();
      const std::size_t owner = rt.Owner(child.signature);
      rt.pending.fetch_add(1, std::memory_order_release);
      if (owner == static_cast<std::size_t>(w)) {
        ingest(std::move(child));
      } else if (rt.mailboxes[owner].TryPush(child)) {
        rt.handoffs->Increment();
      } else {
        rt.mailbox_full->Increment();
        child.foreign = true;
        ingest(std::move(child));
      }
      ++children;
    };

    auto charge_expansion = [&]() -> bool {
      const std::uint64_t n =
          rt.total_expansions.fetch_add(1, std::memory_order_relaxed);
      if (n + 1 >= max_expansions) {
        rt.cap_tripped.store(true, std::memory_order_relaxed);
        rt.stop.store(true, std::memory_order_release);
      }
      return n < max_expansions;
    };

    for (EventId target = 0; target < n2; ++target) {
      if (rt.stop.load(std::memory_order_relaxed)) {
        aborted = true;
        break;
      }
      if (node.mapping.IsTargetUsed(target)) {
        continue;
      }
      if (use_symmetry && rt.symmetry->Skips(node.mapping, target)) {
        rt.telem.prune_symmetry->Increment();
        continue;
      }
      if (!charge_expansion()) {
        aborted = true;
        break;
      }
      PNode child;
      child.mapping = node.mapping;
      child.mapping.Set(source, target);
      child.g = node.g;
      for (std::uint32_t pid : plan.completed_at[child_depth]) {
        child.g += scorer.CompletedOrDeadContribution(pid, child.mapping);
      }
      child.depth = child_depth;
      if (child_depth == n1) {
        rt.OfferIncumbent(child.mapping, child.g);
        ++children;
        continue;
      }
      child.signature = DominanceSignature(plan, child_depth, child.mapping);
      dispatch(std::move(child));
    }
    if (partial && !aborted) {
      if (!rt.stop.load(std::memory_order_relaxed) && charge_expansion()) {
        PNode child;
        child.mapping = node.mapping;
        child.mapping.SetUnmapped(source);
        child.g = node.g - unmapped_penalty;
        child.depth = child_depth;
        if (child_depth == n1) {
          rt.OfferIncumbent(child.mapping, child.g);
          ++children;
        } else {
          child.signature =
              DominanceSignature(plan, child_depth, child.mapping);
          dispatch(std::move(child));
        }
      } else {
        aborted = true;
      }
    }
    rt.telem.branching_factor->Observe(static_cast<double>(children));
    rt.telem.RecordOpenPeak(open.size());
    if (aborted) {
      // Keep the half-expanded parent on the anytime frontier; its
      // `pending` registration is still held.
      open.push(std::move(node));
      break;
    }
    rt.pending.fetch_sub(1, std::memory_order_release);
  }

  // Export this worker's best frontier node (the heap top is the max-f
  // element) for the anytime completion and the certified upper bound.
  {
    std::lock_guard<std::mutex> lock(rt.export_mu);
    if (!open.empty()) {
      rt.export_upper = std::max(rt.export_upper, open.top().f());
      rt.exported.push_back(open.top());
    }
  }
  worker_span.AddArg("expanded", static_cast<double>(expanded_nodes));
  rt.done_workers.fetch_add(1, std::memory_order_release);
}

}  // namespace

ParallelAStarMatcher::ParallelAStarMatcher(ParallelAStarOptions options)
    : options_(std::move(options)) {}

std::string ParallelAStarMatcher::name() const {
  return options_.name_override.empty() ? "Pattern-Parallel"
                                        : options_.name_override;
}

Result<MatchResult> ParallelAStarMatcher::Match(
    MatchingContext& context) const {
  const obs::Stopwatch watch;
  const std::size_t n1 = context.num_sources();
  const std::size_t n2 = context.num_targets();
  const bool partial = options_.scorer.partial.enabled();
  if (n1 > n2 && !partial) {
    return Status::InvalidArgument(
        "parallel A* requires |V1| <= |V2|; swap the logs or enable "
        "partial mappings");
  }

  // The main-thread scorer pays the one-time co-occurrence build (for
  // kBitmapTight) before any worker starts, and later runs the greedy
  // anytime completion.
  MappingScorer scorer(context, options_.scorer);
  ExecutionGovernor& governor = context.governor();
  const std::string method = name();
  const std::string slug = obs::MetricSlug(method);
  obs::MetricsRegistry& metrics = context.metrics();

  Runtime rt;
  rt.context = &context;
  rt.options = &options_;
  rt.plan = BuildSearchPlan(context);
  if (options_.reductions.symmetry_breaking) {
    rt.symmetry = &context.target_symmetry();
  }
  rt.telem = SearchTelemetry::Register(metrics, slug);
  rt.recorder = context.trace_recorder();
  int workers = options_.threads;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
  }
  rt.num_workers = std::max(1, workers);
  rt.node_bytes = sizeof(PNode) + (n1 + n2) * sizeof(EventId) + 32;
  rt.mailboxes = std::vector<Mailbox>(rt.num_workers);
  for (Mailbox& m : rt.mailboxes) {
    m.set_capacity(std::max<std::size_t>(1, options_.mailbox_capacity));
  }
  rt.dom_sizes = std::make_unique<PaddedSize[]>(rt.num_workers);
  rt.handoffs = metrics.GetCounter("pastar.handoffs");
  rt.steals = metrics.GetCounter("pastar.steals");
  rt.mailbox_full = metrics.GetCounter("pastar.mailbox_full");
  rt.incumbent_updates = metrics.GetCounter("pastar.incumbent_updates");
  metrics.GetGauge("pastar.threads")
      ->Set(static_cast<double>(rt.num_workers));
  metrics.GetGauge("pastar.symmetry.interchangeable_targets")
      ->Set(rt.symmetry != nullptr
                ? static_cast<double>(rt.symmetry->interchangeable_targets)
                : 0.0);

  obs::ScopedSpan match_span(rt.recorder, "match." + slug, "exec");
  rt.match_span_id = match_span.id();
  obs::SearchTracer* tracer = context.tracer();
  const std::uint64_t prune_hits_at_start = context.existence_prune_hits();

  // Root: depth 0, owner = worker 0 by convention.
  {
    PNode root;
    root.mapping = Mapping(n1, n2);
    root.h = scorer.ComputeHForRemaining(root.mapping,
                                         rt.plan.remaining_after[0]);
    root.h_valid = true;
    root.bound = root.f();
    root.signature = DominanceSignature(rt.plan, 0, root.mapping);
    rt.pending.store(1, std::memory_order_release);
    rt.mailboxes[0].TryPush(root);
  }

  // Warm-start incumbent: a greedy completion from the root seeds the
  // global bound before any worker runs. HDA* hashes nodes to owners
  // with no global f-order, so early expansion is speculative; on easy
  // instances an unseeded race fans out thousands of nodes the first
  // complete mapping would have refuted. The greedy mapping's exact
  // objective is a valid lower bound, so pruning against it never cuts
  // the optimum.
  {
    Mapping greedy(n1, n2);
    std::uint64_t tried = 0;
    const double objective =
        GreedyComplete(scorer, rt.plan, greedy, 0.0, watch, 100.0, tried);
    rt.OfferIncumbent(greedy, objective);
    rt.total_expansions.fetch_add(tried, std::memory_order_relaxed);
  }

  std::vector<std::thread> threads;
  threads.reserve(rt.num_workers);
  for (int w = 0; w < rt.num_workers; ++w) {
    threads.emplace_back(WorkerLoop, std::ref(rt), w);
  }

  // Budget governing: the governor is single-threaded by contract, so
  // only this thread touches it. Workers publish work through atomics;
  // a tripped limit (or an injected crash fault, which throws out of
  // CheckExpansions) raises the stop flag. On a crash the workers are
  // joined before the exception escapes.
  std::exception_ptr crash;
  bool governor_tripped = false;
  std::uint64_t charged = 0;
  std::size_t charged_memory = 0;
  std::uint64_t epoch = 0;
  double next_progress_ms = 50.0;
  while (rt.done_workers.load(std::memory_order_acquire) < rt.num_workers) {
    if (!rt.stop.load(std::memory_order_relaxed) && crash == nullptr) {
      try {
        const std::uint64_t exp =
            rt.total_expansions.load(std::memory_order_relaxed);
        bool ok = true;
        if (exp > charged) {
          ok = governor.CheckExpansions(exp - charged);
          charged = exp;
        }
        if (ok) {
          ok = governor.Poll();
        }
        if (!ok) {
          governor_tripped = true;
          rt.stop.store(true, std::memory_order_release);
        }
      } catch (...) {
        crash = std::current_exception();
        rt.stop.store(true, std::memory_order_release);
      }
      std::size_t dom_entries = 0;
      for (int w = 0; w < rt.num_workers; ++w) {
        dom_entries += rt.dom_sizes[w].value.load(std::memory_order_relaxed);
      }
      const std::size_t mem =
          rt.pending.load(std::memory_order_relaxed) * rt.node_bytes +
          dom_entries * DominanceTable::kBytesPerEntry;
      if (mem > charged_memory) {
        governor.ChargeMemory(mem - charged_memory);
      } else {
        governor.ReleaseMemory(charged_memory - mem);
      }
      charged_memory = mem;

      const double best_f = rt.frontier_f.load(std::memory_order_relaxed);
      const double inc = rt.incumbent.load(std::memory_order_relaxed);
      if (best_f > kNegInf) {
        rt.telem.best_f->Set(best_f);
        rt.telem.bound_gap->Set(best_f - std::max(inc, 0.0));
      }
      if (tracer != nullptr && watch.ElapsedMs() >= next_progress_ms) {
        obs::SearchProgress p;
        p.method = method;
        p.epoch = epoch++;
        p.nodes_visited = rt.total_pops.load(std::memory_order_relaxed);
        p.mappings_processed =
            rt.total_expansions.load(std::memory_order_relaxed);
        p.open_list_size = rt.pending.load(std::memory_order_relaxed);
        p.max_depth = n1;
        p.best_f = best_f;
        p.best_g = std::max(inc, 0.0);
        p.bound_gap = best_f - std::max(inc, 0.0);
        p.existence_prune_hits =
            context.existence_prune_hits() - prune_hits_at_start;
        p.elapsed_ms = watch.ElapsedMs();
        tracer->OnProgress(p);
        next_progress_ms = watch.ElapsedMs() + 50.0;
      }
    }
    // 1 ms poll: coarse enough that the supervisor does not compete
    // with workers for cycles (it matters when cores are scarce), fine
    // enough for ms-scale deadlines and the 50 ms progress cadence.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& t : threads) {
    t.join();
  }
  if (crash != nullptr) {
    std::rethrow_exception(crash);
  }

  MatchResult result;
  result.nodes_visited = rt.total_pops.load(std::memory_order_relaxed);
  result.mappings_processed =
      rt.total_expansions.load(std::memory_order_relaxed);
  rt.telem.prune_existence->Increment(context.existence_prune_hits() -
                                      prune_hits_at_start);

  auto finish = [&](std::size_t open_size) {
    rt.telem.RecordOpenPeak(open_size);
    match_span.AddArg("threads", static_cast<double>(rt.num_workers));
    match_span.AddArg("nodes_visited",
                      static_cast<double>(result.nodes_visited));
    match_span.AddArg("mappings_processed",
                      static_cast<double>(result.mappings_processed));
    match_span.AddArg("objective", result.objective);
    match_span.AddArg("bound_gap", result.upper_bound - result.lower_bound);
    FinalizePartialMapping(context, method, options_.scorer.partial, result);
    FinalizeMatchTelemetry(context, method, watch, result);
  };

  const bool drained = rt.drained.load(std::memory_order_acquire);
  if (drained && !governor_tripped &&
      !rt.cap_tripped.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(rt.incumbent_mu);
    if (!rt.has_incumbent) {
      return Status::Internal(
          "parallel A* drained its frontier without a complete mapping");
    }
    result.mapping = rt.incumbent_mapping;
    result.objective = rt.incumbent_value;
    result.lower_bound = rt.incumbent_value;
    result.upper_bound = rt.incumbent_value;
    result.bounds_certified = true;
    result.termination = TerminationReason::kCompleted;
    rt.telem.best_f->Set(result.objective);
    rt.telem.bound_gap->Set(0.0);
    finish(0);
    return result;
  }

  // Anytime exit: a budget tripped. Certify an upper bound from every
  // surviving node — exported open-list tops plus whatever is still in
  // transit in the mailboxes (those carry an inherited `bound` even
  // without h) — then greedily complete the best frontier node and
  // return the better of that and the incumbent.
  const TerminationReason reason =
      rt.cap_tripped.load(std::memory_order_relaxed) && !governor_tripped
          ? TerminationReason::kExpansionCap
          : governor.reason();
  double upper = rt.export_upper;
  PNode best_frontier;
  bool have_frontier = false;
  for (const PNode& node : rt.exported) {
    if (!have_frontier || PNodeLess{}(best_frontier, node)) {
      best_frontier = node;
      have_frontier = true;
    }
  }
  std::size_t in_transit = 0;
  PNode msg;
  for (Mailbox& mailbox : rt.mailboxes) {
    while (mailbox.TryPop(msg)) {
      ++in_transit;
      upper = std::max(upper, msg.bound);
      if (!have_frontier) {
        best_frontier = std::move(msg);
        have_frontier = true;
      }
    }
  }

  double objective;
  Mapping mapping{0, 0};
  if (have_frontier) {
    const double deadline = governor.budget().deadline_ms;
    const double grace_ms = deadline > 0.0 ? deadline * 1.5 + 25.0 : -1.0;
    Mapping m = std::move(best_frontier.mapping);
    objective = GreedyComplete(scorer, rt.plan, m, best_frontier.g, watch,
                               grace_ms, result.mappings_processed);
    mapping = std::move(m);
  } else {
    objective = kNegInf;
  }
  {
    std::lock_guard<std::mutex> lock(rt.incumbent_mu);
    if (rt.has_incumbent && rt.incumbent_value >= objective) {
      objective = rt.incumbent_value;
      mapping = rt.incumbent_mapping;
    } else if (!have_frontier && !rt.has_incumbent) {
      // Degenerate: stopped before any node survived. Complete the
      // empty mapping so the anytime contract (a full mapping, always)
      // holds.
      Mapping m(n1, n2);
      objective = GreedyComplete(scorer, rt.plan, m, 0.0, watch, -1.0,
                                 result.mappings_processed);
      mapping = std::move(m);
    }
  }
  result.mapping = std::move(mapping);
  result.objective = objective;
  result.termination = reason;
  result.lower_bound = objective;
  result.upper_bound = std::max(upper, objective);
  result.bounds_certified = reason != TerminationReason::kCancelled;
  rt.telem.best_f->Set(result.objective);
  rt.telem.bound_gap->Set(result.upper_bound - result.lower_bound);
  finish(in_transit);
  return result;
}

}  // namespace hematch::exec
