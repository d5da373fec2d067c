#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

// Reading back the spans the traced run recorded from the benchmark's
// own code: self time per span, and the instance or request each span
// belongs to (carried as an "instance" arg on root spans and inherited
// by their descendants).

#include <string>
#include <vector>

#include "obs/trace.h"
#include "report.h"

namespace perfbench {

struct SpanRecord {
  std::string name;
  double instance = -1.0;
  double self_ms = 0.0;
};

std::vector<SpanRecord> CollectSpans(
    const hematch::obs::TraceRecorder& recorder);

/// Writes the recorder's spans as Chrome trace JSON under
/// `args.trace_dir` and names the file in an info line.
void WriteSpanFile(const hematch::obs::TraceRecorder& recorder,
                   const RunArgs& args, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
