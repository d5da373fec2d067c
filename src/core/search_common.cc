#include "core/search_common.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "freq/pattern_key.h"

namespace hematch {

using internal::MixBits;

SearchPlan BuildSearchPlan(const MatchingContext& context) {
  SearchPlan plan;
  plan.num_sources = context.num_sources();
  plan.num_targets = context.num_targets();
  const std::size_t n1 = plan.num_sources;

  // Fixed expansion order: source events by decreasing number of
  // involving patterns (Ip list length), then by id for determinism.
  plan.order.resize(n1);
  for (EventId v = 0; v < n1; ++v) {
    plan.order[v] = v;
  }
  const PatternIndex& ip = context.pattern_index();
  std::stable_sort(plan.order.begin(), plan.order.end(),
                   [&](EventId a, EventId b) {
                     return ip.PatternCount(a) > ip.PatternCount(b);
                   });
  plan.position.resize(n1);
  for (std::size_t d = 0; d < n1; ++d) {
    plan.position[plan.order[d]] = d;
  }

  plan.completed_at.assign(n1 + 1, {});
  plan.remaining_after.assign(n1 + 1, {});
  for (std::uint32_t pid = 0; pid < context.num_patterns(); ++pid) {
    std::size_t last = 0;
    for (EventId v : context.patterns()[pid].events()) {
      last = std::max(last, plan.position[v] + 1);
    }
    plan.completed_at[last].push_back(pid);
    for (std::size_t d = 0; d < last; ++d) {
      plan.remaining_after[d].push_back(pid);
    }
  }

  // signature_sources[d]: decided sources read by some still-incomplete
  // pattern. Mark pattern events with position < d.
  plan.signature_sources.assign(n1 + 1, {});
  std::vector<char> relevant(n1, 0);
  for (std::size_t d = 0; d <= n1; ++d) {
    std::fill(relevant.begin(), relevant.end(), 0);
    for (std::uint32_t pid : plan.remaining_after[d]) {
      for (EventId v : context.patterns()[pid].events()) {
        if (plan.position[v] < d) {
          relevant[v] = 1;
        }
      }
    }
    for (EventId v = 0; v < n1; ++v) {
      if (relevant[v] != 0) {
        plan.signature_sources[d].push_back(v);
      }
    }
  }
  return plan;
}

std::uint64_t DominanceSignature(const SearchPlan& plan, std::size_t depth,
                                 const Mapping& mapping) {
  std::uint64_t sig = MixBits(0x7061737461727369ull ^ depth);
  // Used-target *set*, order-independently: nodes that routed their
  // future-irrelevant sources to the same targets in different ways
  // must collide.
  std::uint64_t target_set = 0;
  for (std::size_t d = 0; d < depth; ++d) {
    const EventId target = mapping.TargetOf(plan.order[d]);
    if (target != kInvalidEventId) {
      target_set += MixBits(0x2bull + target);
    }
  }
  sig = MixBits(sig ^ target_set);
  // Exact assignments of the future-relevant sources, in fixed order.
  for (EventId v : plan.signature_sources[depth]) {
    const EventId target = mapping.TargetOf(v);
    const std::uint64_t code =
        target != kInvalidEventId
            ? 2ull + target
            : 1ull;  // ⊥ — the source is decided, so never "unassigned".
    sig = MixBits(sig ^ ((static_cast<std::uint64_t>(v) << 24) | code));
  }
  return sig;
}

namespace {

// Mixed hash of one trace with labels `x` and `y` swapped (x == y hashes
// the trace as is). A trace multiset hashes to the wrapping sum of its
// traces' hashes, so trace order never matters and one trace's term can
// be replaced without touching the others.
std::uint64_t SwappedTraceHash(const Trace& trace, EventId x, EventId y) {
  std::uint64_t h = MixBits(0x74726163ull ^ trace.size());
  for (EventId e : trace) {
    EventId r = e;
    if (e == x) {
      r = y;
    } else if (e == y) {
      r = x;
    }
    h = MixBits(h ^ (static_cast<std::uint64_t>(r) + 0x9E3779B9ull));
  }
  return MixBits(h);
}

// True when swapping labels `x` and `y` maps log2's trace multiset onto
// itself. Only traces containing x or y change under the swap, so the
// multiset hash is unchanged exactly when the swapped terms of those
// traces sum to their original terms.
bool SwapPreservesMultiset(const EventLog& log, const TraceIndex& index,
                           EventId x, EventId y) {
  const std::vector<std::uint32_t>& px = index.Postings(x);
  const std::vector<std::uint32_t>& py = index.Postings(y);
  std::uint64_t delta = 0;
  auto rehash = [&](std::uint32_t id) {
    const Trace& trace = log.traces()[id];
    delta += SwappedTraceHash(trace, x, y) - SwappedTraceHash(trace, x, x);
  };
  // Union of the two sorted posting lists.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < px.size() || j < py.size()) {
    if (j == py.size() || (i < px.size() && px[i] < py[j])) {
      rehash(px[i++]);
    } else if (i == px.size() || py[j] < px[i]) {
      rehash(py[j++]);
    } else {
      rehash(px[i]);
      ++i;
      ++j;
    }
  }
  return delta == 0;
}

}  // namespace

TargetSymmetry ComputeTargetSymmetry(const EventLog& log2,
                                     const TraceIndex& index2,
                                     const DependencyGraph& graph2) {
  TargetSymmetry sym;
  const std::size_t n = log2.num_events();

  // Dependency-graph profile per label: its vertex frequency and the
  // multisets of its outgoing and incoming edge frequencies. A swap
  // automorphism of the trace multiset is an automorphism of the graph
  // too, so interchangeable labels have equal profiles: an exact filter
  // that reads only the already-built graph, before any trace is
  // touched.
  auto weight = [](double frequency) {
    return MixBits(std::bit_cast<std::uint64_t>(frequency));
  };
  std::vector<std::uint64_t> profile(n, 0);
  for (EventId e = 0; e < n; ++e) {
    std::uint64_t out = 0;
    for (double frequency : graph2.OutEdgeFrequencies(e)) {
      out += weight(frequency);
    }
    std::uint64_t in = 0;
    for (double frequency : graph2.InEdgeFrequencies(e)) {
      in += weight(frequency);
    }
    profile[e] = weight(graph2.VertexFrequency(e)) ^
                 MixBits(out ^ 0x6F7574ull) ^ MixBits(in ^ 0x696Eull);
  }

  // Group labels by profile, then verify each member against its
  // group's representative under the swap.
  std::unordered_map<std::uint64_t, std::vector<EventId>> groups;
  for (EventId t = 0; t < n; ++t) {
    groups[profile[t]].push_back(t);
  }
  sym.class_of.assign(n, 0);
  std::vector<char> assigned(n, 0);
  for (EventId t = 0; t < n; ++t) {
    if (assigned[t] != 0) {
      continue;
    }
    const auto c = static_cast<std::uint32_t>(sym.members.size());
    sym.class_of[t] = c;
    assigned[t] = 1;
    sym.members.push_back({t});
    for (EventId u : groups[profile[t]]) {
      if (u <= t || assigned[u] != 0) {
        continue;
      }
      if (SwapPreservesMultiset(log2, index2, t, u)) {
        sym.class_of[u] = c;
        assigned[u] = 1;
        sym.members[c].push_back(u);
      }
    }
  }
  for (const std::vector<EventId>& m : sym.members) {
    if (m.size() > 1) {
      sym.interchangeable_targets += m.size();
    }
  }
  return sym;
}

SearchTelemetry SearchTelemetry::Register(obs::MetricsRegistry& metrics,
                                          const std::string& slug) {
  SearchTelemetry t;
  t.open_list_peak = metrics.GetGauge(slug + ".open_list_peak");
  t.best_f = metrics.GetGauge(slug + ".best_f");
  t.bound_gap = metrics.GetGauge(slug + ".bound_gap");
  t.expansion_depth = metrics.GetHistogram(slug + ".expansion_depth",
                                           {1, 2, 4, 8, 16, 32, 64, 128});
  t.branching_factor = metrics.GetHistogram(slug + ".branching_factor",
                                            {1, 2, 4, 8, 16, 32, 64, 128});
  t.bound_gap_trajectory =
      metrics.GetHistogram(slug + ".bound_gap_trajectory",
                           {0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2, 4, 8});
  t.prune_existence = metrics.GetCounter(slug + ".prune.existence");
  t.prune_bound = metrics.GetCounter(slug + ".prune.bound");
  t.prune_dominance = metrics.GetCounter(slug + ".prune.dominance");
  t.prune_symmetry = metrics.GetCounter(slug + ".prune.symmetry");
  return t;
}

double GreedyComplete(MappingScorer& scorer, const SearchPlan& plan,
                      Mapping& m, double g, const obs::Stopwatch& watch,
                      double grace_ms, std::uint64_t& mappings_processed) {
  const std::size_t n1 = plan.num_sources;
  const std::size_t n2 = plan.num_targets;
  const bool partial = scorer.options().partial.enabled();
  const double unmapped_penalty = scorer.options().partial.unmapped_penalty;
  // Greedy phase: per remaining depth take the target with the best
  // incremental contribution (exact, since `completed_at` makes g
  // incremental). If that would badly overshoot an already-blown
  // deadline, degrade to first-fit for the rest and rescore exactly
  // (one evaluation per remaining pattern).
  std::size_t depth = m.size() + m.num_null_sources();
  for (; depth < n1; ++depth) {
    if (grace_ms > 0.0 && watch.ElapsedMs() > grace_ms) break;
    const EventId source = plan.order[depth];
    bool have = false;
    double best_gain = 0.0;
    EventId best_target = 0;
    for (EventId target = 0; target < n2; ++target) {
      if (m.IsTargetUsed(target)) continue;
      ++mappings_processed;
      m.Set(source, target);
      double gain = 0.0;
      for (std::uint32_t pid : plan.completed_at[depth + 1]) {
        gain += scorer.CompletedOrDeadContribution(pid, m);
      }
      m.Erase(source);
      if (!have || gain > best_gain) {
        have = true;
        best_gain = gain;
        best_target = target;
      }
    }
    if (partial && (!have || -unmapped_penalty > best_gain)) {
      // Every pattern completing at this depth contains `source`, so
      // ⊥ kills them all: the exact incremental gain is -penalty.
      ++mappings_processed;
      m.SetUnmapped(source);
      g -= unmapped_penalty;
      continue;
    }
    m.Set(source, best_target);
    g += best_gain;
  }
  if (depth < n1) {
    const std::size_t scored_upto = depth;
    for (; depth < n1; ++depth) {
      const EventId source = plan.order[depth];
      bool placed = false;
      for (EventId target = 0; target < n2; ++target) {
        if (!m.IsTargetUsed(target)) {
          m.Set(source, target);
          placed = true;
          break;
        }
      }
      if (!placed) {
        m.SetUnmapped(source);
        g -= unmapped_penalty;
      }
    }
    for (std::size_t d = scored_upto; d < n1; ++d) {
      for (std::uint32_t pid : plan.completed_at[d + 1]) {
        g += scorer.CompletedOrDeadContribution(pid, m);
      }
    }
  }
  return g;
}

}  // namespace hematch
