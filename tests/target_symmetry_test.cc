// Tests for target symmetry detection (core/search_common.h): the
// classes `ComputeTargetSymmetry` finds through log2's trace index must
// be exactly the label pairs whose swap maps the trace multiset onto
// itself, and `MatchingContext::target_symmetry` builds them once per
// context family.

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/matching_context.h"
#include "core/search_common.h"
#include "freq/inverted_index.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"

namespace hematch {
namespace {

// Exhaustive reference: swaps `x` and `y` in every trace and compares
// the sorted trace lists — no hashing, no index.
bool SwapIsAutomorphism(const EventLog& log, EventId x, EventId y) {
  std::vector<Trace> original = log.traces();
  std::vector<Trace> swapped = log.traces();
  for (Trace& trace : swapped) {
    for (EventId& e : trace) {
      if (e == x) {
        e = y;
      } else if (e == y) {
        e = x;
      }
    }
  }
  std::sort(original.begin(), original.end());
  std::sort(swapped.begin(), swapped.end());
  return original == swapped;
}

TargetSymmetry Compute(const EventLog& log) {
  return ComputeTargetSymmetry(log, TraceIndex(log),
                               DependencyGraph::Build(log));
}

// The classes partition the labels exactly as the exhaustive check does,
// and the bookkeeping fields agree with the partition.
void ExpectMatchesReference(const EventLog& log) {
  const TargetSymmetry sym = Compute(log);
  const std::size_t n = log.num_events();
  ASSERT_EQ(sym.class_of.size(), n);
  for (EventId x = 0; x < n; ++x) {
    for (EventId y = x + 1; y < n; ++y) {
      EXPECT_EQ(sym.class_of[x] == sym.class_of[y],
                SwapIsAutomorphism(log, x, y))
          << "labels " << x << " and " << y;
    }
  }
  std::size_t interchangeable = 0;
  for (std::uint32_t c = 0; c < sym.members.size(); ++c) {
    EXPECT_TRUE(std::is_sorted(sym.members[c].begin(), sym.members[c].end()));
    for (EventId t : sym.members[c]) {
      EXPECT_EQ(sym.class_of[t], c);
    }
    if (sym.members[c].size() > 1) {
      interchangeable += sym.members[c].size();
    }
  }
  EXPECT_EQ(sym.interchangeable_targets, interchangeable);
}

// A random log; with `plant`, a twin of every trace with labels 0 and 1
// swapped (making them interchangeable) and a few identical decoys.
EventLog RandomLog(Rng& rng, std::size_t n, bool plant) {
  EventLog log;
  for (std::size_t v = 0; v < n; ++v) {
    log.InternEvent("e" + std::to_string(v));
  }
  std::vector<Trace> traces;
  for (int t = 0; t < 30; ++t) {
    Trace trace(1 + rng.NextBounded(5));
    for (EventId& e : trace) {
      e = static_cast<EventId>(rng.NextBounded(n));
    }
    traces.push_back(trace);
    if (plant) {
      for (EventId& e : trace) {
        e = e == 0 ? 1 : e == 1 ? 0 : e;
      }
      traces.push_back(trace);
    }
  }
  for (Trace& trace : traces) {
    log.AddTrace(std::move(trace));
  }
  if (plant) {
    for (int d = 0; d < 3; ++d) {
      for (int i = 0; i < 4; ++i) {
        log.AddTraceByNames({"decoy" + std::to_string(d)});
      }
    }
  }
  return log;
}

TEST(TargetSymmetryTest, ClassesEqualExhaustiveSwapCheckOnRandomLogs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const std::size_t n = 2 + rng.NextBounded(4);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesReference(RandomLog(rng, n, /*plant=*/false));
    ExpectMatchesReference(RandomLog(rng, n, /*plant=*/true));
  }
}

TEST(TargetSymmetryTest, PlantedSwapIsDetected) {
  Rng rng(5);
  const EventLog log = RandomLog(rng, 4, /*plant=*/true);
  const TargetSymmetry sym = Compute(log);
  EXPECT_EQ(sym.class_of[0], sym.class_of[1]);
}

// Labels that agree on every statistic a swap preserves — trace count,
// positions, dependency-graph edges — but whose swap changes the trace
// multiset must stay apart. x and y each occur once at position 1 of a
// length-2 trace with one outgoing edge; a and b mirror them at
// position 2.
TEST(TargetSymmetryTest, EqualFingerprintsWithoutSwapInvarianceStayApart) {
  EventLog log;
  log.AddTraceByNames({"x", "a"});
  log.AddTraceByNames({"y", "b"});
  ExpectMatchesReference(log);
  EXPECT_FALSE(Compute(log).any());
}

// The same trap where the two labels share traces: x and y each occupy
// positions 1 and 2 of length-3 traces and follow each other once, but
// only "x y" comes with "a".
TEST(TargetSymmetryTest, SharedTracesWithoutSwapInvarianceStayApart) {
  EventLog log;
  log.AddTraceByNames({"x", "y", "a"});
  log.AddTraceByNames({"y", "x", "b"});
  ExpectMatchesReference(log);
  EXPECT_FALSE(Compute(log).any());
}

TEST(TargetSymmetryTest, IdenticalDecoySingletonsShareAClass) {
  EventLog log;
  log.AddTraceByNames({"p", "q", "r"});
  log.AddTraceByNames({"p", "r"});
  for (int d = 0; d < 3; ++d) {
    for (int i = 0; i < 50; ++i) {
      log.AddTraceByNames({"decoy" + std::to_string(d)});
    }
  }
  // One more occurrence than the others: not interchangeable with them.
  for (int i = 0; i < 51; ++i) {
    log.AddTraceByNames({"odd"});
  }
  ExpectMatchesReference(log);
  const TargetSymmetry sym = Compute(log);
  const EventId d0 = *log.dictionary().Lookup("decoy0");
  const EventId d1 = *log.dictionary().Lookup("decoy1");
  const EventId d2 = *log.dictionary().Lookup("decoy2");
  const EventId odd = *log.dictionary().Lookup("odd");
  EXPECT_EQ(sym.class_of[d0], sym.class_of[d1]);
  EXPECT_EQ(sym.class_of[d0], sym.class_of[d2]);
  EXPECT_NE(sym.class_of[d0], sym.class_of[odd]);
  EXPECT_EQ(sym.members[sym.class_of[d0]],
            (std::vector<EventId>{d0, d1, d2}));
  EXPECT_EQ(sym.interchangeable_targets, 3u);
}

// The context builds the classes once and shares them with siblings,
// whichever context asks first and from however many threads.
TEST(TargetSymmetryTest, SiblingContextsShareOneBuild) {
  EventLog log1;
  log1.AddTraceByNames({"a", "b"});
  EventLog log2;
  log2.AddTraceByNames({"x", "y"});
  log2.AddTraceByNames({"y", "x"});
  log2.AddTraceByNames({"z"});

  MatchingContext base(log1, log2, {Pattern::Event(0)});
  exec::ExecutionGovernor governor;
  MatchingContext sibling(base, &governor);
  const TargetSymmetry* first = &sibling.target_symmetry();
  EXPECT_EQ(first, &base.target_symmetry());
  EXPECT_EQ(first, &sibling.target_symmetry());
  EXPECT_EQ(first->class_of, Compute(log2).class_of);
  EXPECT_TRUE(first->any());

  MatchingContext fresh(log1, log2, {Pattern::Event(0)});
  std::vector<exec::ExecutionGovernor> governors(4);
  std::vector<std::unique_ptr<MatchingContext>> siblings;
  for (exec::ExecutionGovernor& g : governors) {
    siblings.push_back(std::make_unique<MatchingContext>(fresh, &g));
  }
  std::vector<const TargetSymmetry*> seen(siblings.size(), nullptr);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < siblings.size(); ++i) {
    threads.emplace_back(
        [&, i] { seen[i] = &siblings[i]->target_symmetry(); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const TargetSymmetry* s : seen) {
    EXPECT_EQ(s, &fresh.target_symmetry());
  }
  EXPECT_NE(&fresh.target_symmetry(), first);
}

}  // namespace
}  // namespace hematch
