// Property tests across the I/O formats: random logs survive
// write -> read round trips in every supported format, and the
// dependency graph built from any copy is identical.

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/log_corruptor.h"
#include "gen/random_logs.h"
#include "graph/dependency_graph.h"
#include "log/log_io.h"
#include "log/xes_io.h"

namespace hematch {
namespace {

EventLog RandomLog(Rng& rng) {
  EventLog log;
  const std::size_t n = 2 + rng.NextBounded(6);
  for (std::size_t v = 0; v < n; ++v) {
    log.InternEvent("step-" + std::to_string(v));
  }
  const std::size_t traces = 1 + rng.NextBounded(30);
  for (std::size_t t = 0; t < traces; ++t) {
    Trace trace(1 + rng.NextBounded(9));
    for (EventId& e : trace) {
      e = static_cast<EventId>(rng.NextBounded(n));
    }
    log.AddTrace(std::move(trace));
  }
  return log;
}

void ExpectSameTraces(const EventLog& a, const EventLog& b) {
  ASSERT_EQ(a.num_traces(), b.num_traces());
  for (std::size_t i = 0; i < a.num_traces(); ++i) {
    EXPECT_EQ(a.TraceToString(a.traces()[i]), b.TraceToString(b.traces()[i]));
  }
}

class LogRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LogRoundTripTest, TraceFormat) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    const EventLog original = RandomLog(rng);
    std::ostringstream out;
    ASSERT_TRUE(WriteTraceLog(original, out).ok());
    std::istringstream in(out.str());
    Result<EventLog> parsed = ReadTraceLog(in);
    ASSERT_TRUE(parsed.ok());
    ExpectSameTraces(original, *parsed);
  }
}

TEST_P(LogRoundTripTest, CsvFormat) {
  Rng rng(GetParam() ^ 0x9e3779b9u);
  for (int round = 0; round < 10; ++round) {
    const EventLog original = RandomLog(rng);
    std::ostringstream out;
    ASSERT_TRUE(WriteCsvLog(original, out).ok());
    std::istringstream in(out.str());
    Result<EventLog> parsed = ReadCsvLog(in);
    ASSERT_TRUE(parsed.ok());
    ExpectSameTraces(original, *parsed);
  }
}

TEST_P(LogRoundTripTest, XesFormat) {
  Rng rng(GetParam() ^ 0x1234567u);
  for (int round = 0; round < 10; ++round) {
    const EventLog original = RandomLog(rng);
    std::ostringstream out;
    ASSERT_TRUE(WriteXesLog(original, out).ok());
    std::istringstream in(out.str());
    Result<EventLog> parsed = ReadXesLog(in);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ExpectSameTraces(original, *parsed);
  }
}

TEST_P(LogRoundTripTest, DependencyGraphInvariantAcrossFormats) {
  Rng rng(GetParam() ^ 0xabcdefu);
  const EventLog original = RandomLog(rng);
  const DependencyGraph reference = DependencyGraph::Build(original);

  std::ostringstream out;
  ASSERT_TRUE(WriteXesLog(original, out).ok());
  std::istringstream in(out.str());
  Result<EventLog> parsed = ReadXesLog(in);
  ASSERT_TRUE(parsed.ok());
  const DependencyGraph roundtripped = DependencyGraph::Build(*parsed);

  // Vocabulary size may shrink (declared-but-never-occurring events are
  // not serialized), but the edge structure is carried by the traces.
  ASSERT_EQ(reference.num_edges(), roundtripped.num_edges());
  // Vocabulary order can differ (first-seen in trace order vs declared),
  // so compare through names.
  for (EventId v = 0; v < original.num_events(); ++v) {
    const std::string& name = original.dictionary().Name(v);
    if (!parsed->dictionary().Contains(name)) {
      // The event never occurred in any trace; frequency must be 0.
      EXPECT_DOUBLE_EQ(reference.VertexFrequency(v), 0.0);
      continue;
    }
    const EventId w = parsed->dictionary().Lookup(name).value();
    EXPECT_DOUBLE_EQ(reference.VertexFrequency(v),
                     roundtripped.VertexFrequency(w));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Generated logs, some with dropped, duplicated and swapped events,
// through every writer and back through its reader (strict mode, so
// nothing may need salvage): each must come back with the same traces
// and a dictionary in first-seen trace order.

enum class Format { kTrace, kCsv, kXes };

Result<EventLog> WriteAndRead(const EventLog& log, Format format) {
  std::ostringstream out;
  std::istringstream in;
  switch (format) {
    case Format::kTrace:
      EXPECT_TRUE(WriteTraceLog(log, out).ok());
      in.str(out.str());
      return ReadTraceLog(in);
    case Format::kCsv: {
      EXPECT_TRUE(WriteCsvLog(log, out).ok());
      in.str(out.str());
      CsvReadOptions strict;
      strict.strict = true;
      return ReadCsvLog(in, strict);
    }
    case Format::kXes: {
      EXPECT_TRUE(WriteXesLog(log, out).ok());
      in.str(out.str());
      XesReadOptions strict;
      strict.strict = true;
      return ReadXesLog(in, strict);
    }
  }
  return Status::Internal("unknown format");
}

// Every reader drops empty traces and interns names as traces use them.
void ExpectReadBackAs(const EventLog& original, const EventLog& parsed) {
  std::vector<std::string> first_seen;
  std::vector<std::string> traces;
  for (const Trace& trace : original.traces()) {
    if (trace.empty()) {
      continue;
    }
    traces.push_back(original.TraceToString(trace));
    for (EventId e : trace) {
      const std::string& name = original.dictionary().Name(e);
      if (std::find(first_seen.begin(), first_seen.end(), name) ==
          first_seen.end()) {
        first_seen.push_back(name);
      }
    }
  }
  EXPECT_EQ(parsed.dictionary().names(), first_seen);
  ASSERT_EQ(parsed.num_traces(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(parsed.TraceToString(parsed.traces()[i]), traces[i]);
  }
}

class GeneratedRoundTripTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratedRoundTripTest, EveryFormatKeepsDictionaryOrderAndTraces) {
  const std::uint64_t seed = GetParam();
  RandomLogsOptions options;
  options.num_events = 3 + seed % 6;
  options.num_traces = 20 + (seed * 13) % 50;
  options.max_trace_length = 3 + seed % 8;
  options.seed = seed;
  MatchingTask task = MakeRandomTask(options);
  if (seed % 2 == 0) {
    CorruptionSpec noise;
    noise.drop_event = 0.15;
    noise.duplicate_event = 0.1;
    noise.swap_adjacent = 0.1;
    noise.seed = seed;
    task = CorruptTask(task, noise);
  }
  for (const EventLog* log : {&task.log1, &task.log2}) {
    for (const Format format : {Format::kTrace, Format::kCsv, Format::kXes}) {
      SCOPED_TRACE(static_cast<int>(format));
      Result<EventLog> parsed = WriteAndRead(*log, format);
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      ExpectReadBackAs(*log, *parsed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedRoundTripTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// Pinned inputs that no writer produces but exports do.

std::vector<std::string> TraceStrings(const EventLog& log) {
  std::vector<std::string> out;
  for (const Trace& trace : log.traces()) {
    out.push_back(log.TraceToString(trace));
  }
  return out;
}

using Names = std::vector<std::string>;

TEST(PinnedInputTest, CsvShuffledAcrossCasesWithOutOfOrderTimestamps) {
  std::istringstream in(
      "case,event,timestamp\n"
      "b,Y,20\n"
      "a,C,3\n"
      "c,Z,2014-03-01\n"
      "a,A,1\n"
      "b,X,9\n"
      "c,W,2014-02-28\n"
      "a,B,2\n"
      "b,A,100\n");
  Result<EventLog> log = ReadCsvLog(in);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(TraceStrings(*log), (Names{"X Y A", "A B C", "W Z"}));
  EXPECT_EQ(log->dictionary().names(),
            (Names{"X", "Y", "A", "B", "C", "W", "Z"}));
}

TEST(PinnedInputTest, CsvBomCrlfAndNoFinalNewline) {
  std::istringstream in(
      "\xEF\xBB\xBF"
      "case,event,timestamp\r\n"
      "t1,B,2\r\n"
      "t1,A,1\r\n"
      "t2,C,5");
  CsvReadOptions strict;
  strict.strict = true;
  Result<EventLog> log = ReadCsvLog(in, strict);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(TraceStrings(*log), (Names{"A B", "C"}));
}

TEST(PinnedInputTest, CsvExtraAndPaddedColumns) {
  std::istringstream in(
      "id, Activity ,x,\tCase ,TIME,extra\n"
      "1,  pay ,q, o1 , 2 ,z,more,cells\n"
      "2,\torder\t,q,o1,1,z\n"
      "3,ship,q,o2,1,z\n");
  CsvReadOptions strict;
  strict.strict = true;
  CsvReadStats stats;
  Result<EventLog> log = ReadCsvLog(in, strict, &stats);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(TraceStrings(*log), (Names{"order pay", "ship"}));
  EXPECT_EQ(stats.salvaged_rows, 0u);
}

TEST(PinnedInputTest, TraceTabsSpacesCommentsAndNoFinalNewline) {
  std::istringstream in(
      "# header comment\n"
      "\tA   B\t\tC \r\n"
      "   # indented comment\n"
      "\n"
      "A#x  B\n"
      "D");
  Result<EventLog> log = ReadTraceLog(in);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(TraceStrings(*log), (Names{"A B C", "A#x B", "D"}));
  EXPECT_EQ(log->dictionary().names(), (Names{"A", "B", "C", "A#x", "D"}));
}

TEST(PinnedInputTest, XesEntityNamesDecodeAndRoundTrip) {
  std::istringstream in(R"(<log><trace>
    <event><string key="concept:name" value="R&amp;D"/></event>
    <event><string key="concept:name" value="&#65;pprove"/></event>
    <event><string key="concept:name" value="R&amp;D"/></event>
  </trace></log>)");
  Result<EventLog> log = ReadXesLog(in);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(log->dictionary().names(), (Names{"R&D", "Approve"}));
  EXPECT_EQ(TraceStrings(*log), (Names{"R&D Approve R&D"}));
  Result<EventLog> again = WriteAndRead(*log, Format::kXes);
  ASSERT_TRUE(again.ok()) << again.status();
  ExpectReadBackAs(*log, *again);
}

// Reference cross-check: dependency-graph frequencies against a naive
// per-trace recount on random logs.
class DependencyGraphReferenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DependencyGraphReferenceTest, FrequenciesMatchNaiveRecount) {
  Rng rng(GetParam());
  const EventLog log = RandomLog(rng);
  const DependencyGraph graph = DependencyGraph::Build(log);
  const double inv = 1.0 / static_cast<double>(log.num_traces());
  for (EventId u = 0; u < log.num_events(); ++u) {
    std::size_t vertex_support = 0;
    for (const Trace& trace : log.traces()) {
      for (EventId e : trace) {
        if (e == u) {
          ++vertex_support;
          break;
        }
      }
    }
    EXPECT_DOUBLE_EQ(graph.VertexFrequency(u), vertex_support * inv);
    for (EventId v = 0; v < log.num_events(); ++v) {
      std::size_t edge_support = 0;
      for (const Trace& trace : log.traces()) {
        for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
          if (trace[i] == u && trace[i + 1] == v) {
            ++edge_support;
            break;
          }
        }
      }
      EXPECT_DOUBLE_EQ(graph.EdgeFrequency(u, v), edge_support * inv)
          << u << "->" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DependencyGraphReferenceTest,
                         ::testing::Values(11, 13, 17, 19));

}  // namespace
}  // namespace hematch
