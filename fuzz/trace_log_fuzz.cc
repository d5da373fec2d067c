// libFuzzer entry point for the trace-per-line (`.tr`) reader: arbitrary
// bytes must produce a log, never a crash or hang, and writing that log
// back and rereading it must reproduce it (same dictionary order, same
// traces).
// Build with -DHEMATCH_BUILD_FUZZERS=ON (requires clang's libFuzzer).

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "log/log_io.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace hematch;
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::istringstream in(text);
  Result<EventLog> log = ReadTraceLog(in);
  if (!log.ok()) {
    __builtin_trap();  // Only an I/O failure can fail a .tr read.
  }
  std::ostringstream out;
  if (!WriteTraceLog(*log, out).ok()) {
    __builtin_trap();
  }
  std::istringstream again_in(out.str());
  Result<EventLog> again = ReadTraceLog(again_in);
  if (!again.ok() ||
      again->dictionary().names() != log->dictionary().names() ||
      again->traces() != log->traces()) {
    __builtin_trap();
  }
  return 0;
}
