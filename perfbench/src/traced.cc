#include "traced.h"

#include <filesystem>
#include <unordered_map>

#include "stats.h"

namespace perfbench {

std::vector<SpanRecord> CollectSpans(
    const hematch::obs::TraceRecorder& recorder) {
  std::vector<hematch::obs::TraceEvent> events;
  for (hematch::obs::TraceEvent& e : recorder.Snapshot()) {
    if (e.kind == hematch::obs::TraceEventKind::kSpan) {
      events.push_back(std::move(e));
    }
  }
  std::vector<Span> spans;
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const hematch::obs::TraceEvent& e = events[i];
    spans.push_back({e.id, e.parent, e.ts_us, e.ts_us + e.dur_us});
    index[e.id] = i;
  }
  const std::vector<double> self = SelfTimes(spans);
  // Instance of a span: its own "instance" arg, else its nearest
  // ancestor's.
  auto own_instance = [&](std::size_t i) -> double {
    for (const hematch::obs::TraceArg& a : events[i].args) {
      if (a.key == "instance") return a.value;
    }
    return -1.0;
  };
  std::vector<SpanRecord> records;
  for (std::size_t i = 0; i < events.size(); ++i) {
    double instance = own_instance(i);
    for (std::size_t j = i; instance < 0.0;) {
      auto parent = index.find(events[j].parent);
      if (events[j].parent == 0 || parent == index.end()) break;
      j = parent->second;
      instance = own_instance(j);
    }
    records.push_back({events[i].name, instance, self[i] / 1000.0});
  }
  return records;
}

void WriteSpanFile(const hematch::obs::TraceRecorder& recorder,
                   const RunArgs& args, Report& report) {
  std::error_code ec;
  std::filesystem::create_directories(args.trace_dir, ec);
  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  const hematch::Status written = recorder.WriteChromeJson(path);
  if (!written.ok()) {
    report.Fail("cannot write span file " + path + ": " + written.ToString());
    return;
  }
  Report::Info("spans written to " + path + " (" +
               std::to_string(recorder.dropped_events()) + " dropped)");
}

}  // namespace perfbench
