// Tests for the g/h scoring machinery shared by all framework matchers.

#include "core/mapping_scorer.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pattern_set.h"
#include "gen/random_logs.h"

namespace hematch {
namespace {

// Two tiny logs where the true mapping is A->X, B->Y, C->Z.
class MappingScorerTest : public ::testing::Test {
 protected:
  MappingScorerTest() {
    log1_.AddTraceByNames({"A", "B", "C"});
    log1_.AddTraceByNames({"A", "B"});
    log2_.AddTraceByNames({"X", "Y", "Z"});
    log2_.AddTraceByNames({"X", "Y"});
    std::vector<Pattern> patterns;
    patterns.push_back(Pattern::Event(0));         // A, f1 = 1.
    patterns.push_back(Pattern::Event(2));         // C, f1 = 0.5.
    patterns.push_back(Pattern::Edge(0, 1));       // AB, f1 = 1.
    patterns.push_back(Pattern::SeqOfEvents({0, 1, 2}));  // ABC, f1 = 0.5.
    ctx_ = std::make_unique<MatchingContext>(log1_, log2_,
                                             std::move(patterns));
  }

  EventLog log1_;
  EventLog log2_;
  std::unique_ptr<MatchingContext> ctx_;
};

TEST_F(MappingScorerTest, MappedEventCount) {
  MappingScorer scorer(*ctx_, {});
  Mapping m(3, 3);
  EXPECT_EQ(scorer.MappedEventCount(3, m), 0u);
  m.Set(0, 0);
  EXPECT_EQ(scorer.MappedEventCount(3, m), 1u);
  m.Set(2, 2);
  EXPECT_EQ(scorer.MappedEventCount(3, m), 2u);
  EXPECT_EQ(scorer.MappedEventCount(0, m), 1u);
}

TEST_F(MappingScorerTest, GOfTrueMappingCountsAllPatterns) {
  MappingScorer scorer(*ctx_, {});
  Mapping truth(3, 3);
  truth.Set(0, 0);
  truth.Set(1, 1);
  truth.Set(2, 2);
  // Every pattern maps to its mirror with identical frequency -> d = 1.
  EXPECT_NEAR(scorer.ComputeG(truth), 4.0, 1e-12);
  EXPECT_NEAR(scorer.ComputeH(truth), 0.0, 1e-12);
}

TEST_F(MappingScorerTest, GOfPartialMappingCountsCompletedOnly) {
  MappingScorer scorer(*ctx_, {});
  Mapping m(3, 3);
  m.Set(0, 0);
  // Completed: vertex A only.
  EXPECT_NEAR(scorer.ComputeG(m), 1.0, 1e-12);
  m.Set(1, 1);
  // Now also edge AB.
  EXPECT_NEAR(scorer.ComputeG(m), 2.0, 1e-12);
}

TEST_F(MappingScorerTest, ScoreSplitsGAndH) {
  MappingScorer scorer(*ctx_, {});
  Mapping m(3, 3);
  m.Set(0, 0);
  const MappingScorer::Score score = scorer.ComputeScore(m);
  EXPECT_NEAR(score.g, scorer.ComputeG(m), 1e-12);
  EXPECT_NEAR(score.h, scorer.ComputeH(m), 1e-12);
  EXPECT_NEAR(score.total(), score.g + score.h, 1e-12);
}

TEST_F(MappingScorerTest, SimpleBoundCountsRemainingPatterns) {
  ScorerOptions options;
  options.bound = BoundKind::kSimple;
  MappingScorer scorer(*ctx_, options);
  Mapping empty(3, 3);
  EXPECT_NEAR(scorer.ComputeH(empty), 4.0, 1e-12);
  Mapping m(3, 3);
  m.Set(0, 0);
  EXPECT_NEAR(scorer.ComputeH(m), 3.0, 1e-12);  // Vertex A completed.
}

TEST_F(MappingScorerTest, TightBoundNeverExceedsSimpleBound) {
  MappingScorer tight(*ctx_, {});
  ScorerOptions simple_options;
  simple_options.bound = BoundKind::kSimple;
  MappingScorer simple(*ctx_, simple_options);
  Rng rng(5);
  for (int round = 0; round < 20; ++round) {
    Mapping m(3, 3);
    std::vector<EventId> targets = {0, 1, 2};
    rng.Shuffle(targets);
    const std::size_t pairs = rng.NextBounded(4);
    for (std::size_t i = 0; i < pairs; ++i) {
      m.Set(static_cast<EventId>(i), targets[i]);
    }
    EXPECT_LE(tight.ComputeH(m), simple.ComputeH(m) + 1e-12);
  }
}

TEST_F(MappingScorerTest, ComputeHForRemainingMatchesFullScan) {
  MappingScorer scorer(*ctx_, {});
  Mapping m(3, 3);
  m.Set(0, 1);
  // Remaining (incomplete) patterns under m: vertex C (1), edge AB (2),
  // SEQ ABC (3). Vertex A (0) is complete.
  const double full = scorer.ComputeH(m);
  const double listed = scorer.ComputeHForRemaining(m, {1, 2, 3});
  EXPECT_NEAR(full, listed, 1e-12);
}

TEST_F(MappingScorerTest, GPlusHBoundsTheBestCompletion) {
  // Core A* invariant: g + h of a partial mapping upper-bounds the
  // objective of every completion.
  MappingScorer scorer(*ctx_, {});
  Mapping partial(3, 3);
  partial.Set(0, 0);
  const double upper = scorer.ComputeScore(partial).total();
  // Enumerate all completions.
  const EventId rest1[] = {1, 2};
  const EventId choices[2][2] = {{1, 2}, {2, 1}};
  for (const auto& choice : choices) {
    Mapping complete = partial;
    complete.Set(rest1[0], choice[0]);
    complete.Set(rest1[1], choice[1]);
    EXPECT_GE(upper + 1e-12, scorer.ComputeG(complete));
  }
}

// ---- h parity against a from-the-definition reference ----

// A random log pair (gen/random_logs) whose log2 also carries decoy
// labels: each in a few one-event traces and, so that decoys have edges
// and co-occurrences, in two traces right after a random real event.
MatchingTask MakeDecoyInstance(std::uint64_t seed) {
  RandomLogsOptions options;
  options.num_events = 4 + seed % 3;
  options.num_traces = 60;
  options.seed = seed;
  MatchingTask task = MakeRandomTask(options);
  Rng rng(seed * 7919);
  const std::size_t real = task.log2.num_events();
  for (std::size_t d = 0; d < 2 + seed % 3; ++d) {
    const EventId decoy = task.log2.InternEvent("decoy" + std::to_string(d));
    for (int i = 0; i < 4; ++i) {
      task.log2.AddTrace({decoy});
    }
    for (int i = 0; i < 2; ++i) {
      task.log2.AddTrace({static_cast<EventId>(rng.NextBounded(real)), decoy});
    }
  }
  task.complex_patterns = {Pattern::SeqOfEvents({0, 1, 2}),
                           Pattern::AndOfEvents({0, 1}),
                           Pattern::AndOfEvents({1, 2, 3})};
  return task;
}

// A random partial mapping: some sources mapped to random distinct
// targets and, when `with_nulls`, some sent to ⊥.
Mapping RandomPartialMapping(std::size_t n1, std::size_t n2, bool with_nulls,
                             Rng& rng) {
  Mapping m(n1, n2);
  std::vector<EventId> sources(n1);
  std::vector<EventId> targets(n2);
  for (EventId v = 0; v < n1; ++v) sources[v] = v;
  for (EventId t = 0; t < n2; ++t) targets[t] = t;
  rng.Shuffle(sources);
  rng.Shuffle(targets);
  const std::size_t decided = rng.NextBounded(n1 + 1);
  std::size_t next_target = 0;
  for (std::size_t i = 0; i < decided; ++i) {
    if (with_nulls && rng.NextBounded(4) == 0) {
      m.SetUnmapped(sources[i]);
    } else {
      m.Set(sources[i], targets[next_target++]);
    }
  }
  return m;
}

// Δ(p, M(V(p) \ U1) ∪ U2) from its definition: ceilings computed over
// the explicit union set, co-occurrence caps read pair by pair.
double ReferenceBound(MatchingContext& context, const ScorerOptions& options,
                      std::size_t pid, const Mapping& m) {
  const Pattern& p = context.patterns()[pid];
  for (EventId v : p.events()) {
    if (m.IsSourceNull(v)) {
      return 0.0;
    }
  }
  if (options.bound == BoundKind::kSimple) {
    return 1.0;
  }
  const std::vector<EventId> unused = m.UnusedTargets();
  std::vector<EventId> fixed;
  for (EventId v : p.events()) {
    if (m.IsSourceMapped(v)) {
      fixed.push_back(m.TargetOf(v));
    }
  }
  std::vector<EventId> union_set = unused;
  union_set.insert(union_set.end(), fixed.begin(), fixed.end());
  if (p.size() > union_set.size()) {
    return 0.0;
  }
  double cap = std::numeric_limits<double>::infinity();
  if (options.bound == BoundKind::kBitmapTight && p.size() >= 2) {
    const CooccurrenceIndex& cooc = context.cooccurrence2();
    for (std::size_t i = 0; i < fixed.size(); ++i) {
      for (std::size_t j = i + 1; j < fixed.size(); ++j) {
        cap = std::min(cap, cooc.At(fixed[i], fixed[j]));
      }
    }
    const std::size_t free_slots = p.size() - fixed.size();
    if (free_slots >= 1) {
      for (EventId t : fixed) {
        double best = 0.0;
        for (EventId u : unused) {
          best = std::max(best, cooc.At(t, u));
        }
        cap = std::min(cap, best);
      }
    }
    if (free_slots >= 2) {
      double best_pair = 0.0;
      for (std::size_t i = 0; i < unused.size(); ++i) {
        for (std::size_t j = i + 1; j < unused.size(); ++j) {
          best_pair = std::max(best_pair, cooc.At(unused[i], unused[j]));
        }
      }
      cap = std::min(cap, best_pair);
    }
  }
  return TightUpperBound(p, context.PatternFrequency1(pid),
                         ComputeCeilings(context.graph2(), union_set), cap);
}

TEST(MappingScorerParityTest, HMatchesReferenceBitForBit) {
  const double kInf = std::numeric_limits<double>::infinity();
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const MatchingTask task = MakeDecoyInstance(seed);
    MatchingContext context(
        task.log1, task.log2,
        BuildPatternSet(DependencyGraph::Build(task.log1),
                        task.complex_patterns));
    const std::size_t n1 = task.log1.num_events();
    const std::size_t n2 = task.log2.num_events();
    for (const double penalty : {kInf, 0.3}) {
      for (const BoundKind bound :
           {BoundKind::kSimple, BoundKind::kTight, BoundKind::kBitmapTight}) {
        ScorerOptions options;
        options.bound = bound;
        options.partial.unmapped_penalty = penalty;
        MappingScorer scorer(context, options);
        Rng rng(seed * 1000 + static_cast<std::uint64_t>(bound));
        for (int round = 0; round < 30; ++round) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " penalty " +
                       std::to_string(penalty) + " bound " +
                       std::to_string(static_cast<int>(bound)) + " round " +
                       std::to_string(round));
          const Mapping m =
              RandomPartialMapping(n1, n2, options.partial.enabled(), rng);
          double h = 0.0;
          std::vector<std::uint32_t> remaining;
          for (std::size_t pid = 0; pid < context.num_patterns(); ++pid) {
            if (scorer.MappedEventCount(pid, m) <
                context.patterns()[pid].size()) {
              remaining.push_back(static_cast<std::uint32_t>(pid));
              h += ReferenceBound(context, options, pid, m);
            }
          }
          const std::size_t undecided = n1 - m.size() - m.num_null_sources();
          const std::size_t unused = m.UnusedTargets().size();
          if (options.partial.enabled() && undecided > unused) {
            h -= penalty * static_cast<double>(undecided - unused);
          }
          EXPECT_EQ(scorer.ComputeHForRemaining(m, remaining), h);
          EXPECT_EQ(scorer.ComputeH(m), h);
          const MappingScorer::Score score = scorer.ComputeScore(m);
          EXPECT_EQ(score.h, h);
          EXPECT_EQ(score.g, scorer.ComputeG(m));
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 24u * 2 * 3 * 30);
}

}  // namespace
}  // namespace hematch
