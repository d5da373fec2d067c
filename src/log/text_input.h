#ifndef HEMATCH_LOG_TEXT_INPUT_H_
#define HEMATCH_LOG_TEXT_INPUT_H_

#include <algorithm>
#include <istream>
#include <string>
#include <string_view>

namespace hematch {
namespace internal {

// Input plumbing shared by the log readers: each reads its stream once
// into one buffer and parses views of it.

/// Reads the rest of `input` into `*text`. Returns false when the stream
/// went bad (an I/O failure, not end of input).
inline bool ReadWholeStream(std::istream& input, std::string* text) {
  text->clear();
  // String streams and regular files report what is left, so one read
  // of that size usually takes everything: a fraction of the cost of
  // streaming into a growing ostringstream.
  const std::streamsize left =
      input.rdbuf() != nullptr ? input.rdbuf()->in_avail() : 0;
  const std::size_t chunk =
      std::max<std::size_t>(left > 0 ? left + 1 : 0, std::size_t{1} << 16);
  while (input) {
    const std::size_t size = text->size();
    text->resize(size + chunk);
    input.read(text->data() + size, static_cast<std::streamsize>(chunk));
    text->resize(size + static_cast<std::size_t>(input.gcount()));
  }
  return !input.bad();
}

/// Takes the next line, without its '\n', off the front of `*rest` the
/// way std::getline does: '\n' ends a line, and a last line without one
/// still counts ("a\n" and "a" are one line each, "" is none).
inline bool NextLine(std::string_view* rest, std::string_view* line) {
  if (rest->empty()) {
    return false;
  }
  const std::size_t end = std::min(rest->find('\n'), rest->size());
  *line = rest->substr(0, end);
  rest->remove_prefix(std::min(end + 1, rest->size()));
  return true;
}

}  // namespace internal
}  // namespace hematch

#endif  // HEMATCH_LOG_TEXT_INPUT_H_
