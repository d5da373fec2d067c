// libFuzzer entry point for the CSV log reader: arbitrary bytes must
// produce either a log or a ParseError in both modes, never a crash or
// hang. A strict success leaves nothing to salvage, so the lenient read
// must agree with it, and writing the log back and rereading it
// strictly must reproduce it.
// Build with -DHEMATCH_BUILD_FUZZERS=ON (requires clang's libFuzzer).

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "log/log_io.h"

namespace {

bool SameLog(const hematch::EventLog& a, const hematch::EventLog& b) {
  return a.dictionary().names() == b.dictionary().names() &&
         a.traces() == b.traces();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace hematch;
  const std::string text(reinterpret_cast<const char*>(data), size);
  CsvReadOptions strict;
  strict.strict = true;
  std::istringstream strict_in(text);
  Result<EventLog> strict_log = ReadCsvLog(strict_in, strict);

  std::istringstream lenient_in(text);
  CsvReadStats stats;
  Result<EventLog> lenient_log = ReadCsvLog(lenient_in, {}, &stats);
  if (!strict_log.ok()) {
    return 0;
  }
  if (!lenient_log.ok() || stats.salvaged_rows != 0 ||
      !SameLog(*strict_log, *lenient_log)) {
    __builtin_trap();
  }
  std::ostringstream out;
  if (!WriteCsvLog(*strict_log, out).ok()) {
    __builtin_trap();
  }
  std::istringstream again_in(out.str());
  Result<EventLog> again = ReadCsvLog(again_in, strict);
  if (!again.ok() || !SameLog(*strict_log, *again)) {
    __builtin_trap();
  }
  return 0;
}
