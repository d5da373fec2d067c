#include "log/log_io.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <numeric>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "common/strings.h"
#include "log/text_input.h"
#include "obs/trace.h"

namespace hematch {

namespace {

// The separators of `.tr` fields: what `std::istream >> std::string`
// skips in the classic locale.
constexpr std::string_view kWhitespace = " \t\n\v\f\r";

// One kept CSV row, before grouping into traces. The views point into
// the reader's input buffer.
struct CsvRow {
  std::string_view event;
  std::string_view timestamp;  // Empty when the row or the file has none.
  std::size_t case_index = 0;  // Cases are numbered in first-row order.
  bool integer = false;        // `timestamp` is all digits.
  bool salvaged = false;       // Already counted in salvaged_rows.
};

bool IsAllDigits(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isdigit(c) != 0; });
}

// Orders timestamps: numerically when both sides are integers, otherwise
// lexicographically (correct for ISO-8601). This is a strict weak
// ordering only within a case that does not mix the two kinds.
bool TimestampLess(const CsvRow& a, const CsvRow& b) {
  if (a.integer && b.integer && a.timestamp.size() != b.timestamp.size()) {
    return a.timestamp.size() < b.timestamp.size();
  }
  return a.timestamp < b.timestamp;
}

// Splits `line` on ',' into `fields`, stopping after `limit` fields.
void SplitFields(std::string_view line, std::size_t limit,
                 std::vector<std::string_view>* fields) {
  fields->clear();
  while (fields->size() < limit) {
    const std::size_t comma = line.find(',');
    fields->push_back(line.substr(0, comma));
    if (comma == std::string_view::npos) {
      break;
    }
    line.remove_prefix(comma + 1);
  }
}

void StripCr(std::string_view* line) {
  if (!line->empty() && line->back() == '\r') {
    line->remove_suffix(1);
  }
}

std::string LowerAscii(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

}  // namespace

Result<EventLog> ReadTraceLog(std::istream& input) {
  // Ingestion predates tracing, so the span recorder arrives ambiently
  // (see obs/trace.h) instead of through a signature change.
  obs::ScopedSpan span(obs::AmbientTraceRecorder(), "log.read_trace", "log");
  std::string text;
  const bool read_ok = internal::ReadWholeStream(input, &text);
  EventLog log;
  std::string_view rest = text;
  std::string_view line;
  while (internal::NextLine(&rest, &line)) {
    line = StripWhitespace(line);
    if (line.empty() || line.front() == '#') {
      continue;
    }
    Trace trace;
    for (std::size_t start = 0; start != std::string_view::npos;
         start = line.find_first_not_of(kWhitespace, start)) {
      const std::size_t end = line.find_first_of(kWhitespace, start);
      trace.push_back(log.InternEvent(line.substr(start, end - start)));
      start = end;
    }
    log.AddTrace(std::move(trace));
  }
  if (!read_ok) {
    return Status::ParseError("I/O failure while reading trace log");
  }
  span.AddArg("traces", static_cast<double>(log.num_traces()));
  span.AddArg("events", static_cast<double>(log.num_events()));
  return log;
}

Result<EventLog> ReadTraceLogFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open trace log file: " + path);
  }
  return ReadTraceLog(file);
}

Status WriteTraceLog(const EventLog& log, std::ostream& output) {
  output << "# hematch trace log: " << log.num_traces() << " traces, "
         << log.num_events() << " events\n";
  for (const Trace& trace : log.traces()) {
    output << log.TraceToString(trace) << '\n';
  }
  if (!output) {
    return Status::Internal("I/O failure while writing trace log");
  }
  return Status::OK();
}

Result<EventLog> ReadCsvLog(std::istream& input, const CsvReadOptions& options,
                            CsvReadStats* stats) {
  obs::ScopedSpan span(obs::AmbientTraceRecorder(), "log.read_csv", "log");
  CsvReadStats local_stats;
  if (stats == nullptr) {
    stats = &local_stats;
  }
  *stats = CsvReadStats{};
  std::string text;
  const bool read_ok = internal::ReadWholeStream(input, &text);
  std::string_view rest = text;
  std::string_view line;
  if (!internal::NextLine(&rest, &line)) {
    return Status::ParseError("CSV log is empty (missing header)");
  }
  // A UTF-8 byte-order mark on the header and CR line endings are valid
  // encodings (Windows exports), not defects: strip them in both modes.
  if (StartsWith(line, "\xEF\xBB\xBF")) {
    line.remove_prefix(3);
  }
  StripCr(&line);
  std::vector<std::string_view> fields;
  SplitFields(line, std::string_view::npos, &fields);
  int case_col = -1;
  int event_col = -1;
  int time_col = -1;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::string name = LowerAscii(StripWhitespace(fields[i]));
    if (name == "case" || name == "case_id" || name == "trace" ||
        name == "trace_id") {
      case_col = static_cast<int>(i);
    } else if (name == "event" || name == "activity" || name == "event_name") {
      event_col = static_cast<int>(i);
    } else if (name == "timestamp" || name == "time" || name == "ts") {
      time_col = static_cast<int>(i);
    }
  }
  if (case_col < 0 || event_col < 0) {
    return Status::ParseError(
        "CSV header must contain 'case' and 'event' columns; got: " +
        std::string(line));
  }
  const std::size_t needed =
      static_cast<std::size_t>(std::max({case_col, event_col, time_col}) + 1);
  // A ragged row that still reaches the case and event columns only
  // lost its timestamp: salvageable. Anything shorter is not a row.
  const std::size_t required =
      static_cast<std::size_t>(std::max(case_col, event_col) + 1);

  std::vector<CsvRow> rows;
  std::vector<std::string_view> cases;  // Indexed by CsvRow::case_index.
  std::unordered_map<std::string_view, std::size_t> case_index;
  std::size_t line_no = 1;
  while (internal::NextLine(&rest, &line)) {
    ++line_no;
    StripCr(&line);
    if (StripWhitespace(line).empty()) {
      continue;
    }
    SplitFields(line, needed, &fields);
    bool defective = false;
    if (fields.size() < needed) {
      if (options.strict) {
        return Status::ParseError("CSV line " + std::to_string(line_no) +
                                  " has too few fields: " + std::string(line));
      }
      defective = true;
      if (fields.size() < required) {
        ++stats->salvaged_rows;
        continue;
      }
    }
    const std::string_view case_id = StripWhitespace(fields[case_col]);
    CsvRow row;
    row.event = StripWhitespace(fields[event_col]);
    if (time_col >= 0 &&
        static_cast<std::size_t>(time_col) < fields.size()) {
      row.timestamp = StripWhitespace(fields[time_col]);
      row.integer = IsAllDigits(row.timestamp);
    }
    if (case_id.empty() || row.event.empty()) {
      if (options.strict) {
        return Status::ParseError("CSV line " + std::to_string(line_no) +
                                  " has an empty case or event field");
      }
      ++stats->salvaged_rows;
      continue;
    }
    if (defective) {
      ++stats->salvaged_rows;
    }
    row.salvaged = defective;
    const auto [it, inserted] = case_index.try_emplace(case_id, cases.size());
    if (inserted) {
      cases.push_back(case_id);
    }
    row.case_index = it->second;
    rows.push_back(row);
  }
  if (!read_ok) {
    return Status::ParseError("I/O failure while reading CSV log");
  }

  // Stable counting sort by case: cases keep first-appearance order (so
  // the trace order, and thus event first-seen order, is stable) and
  // each case's rows keep file order.
  std::vector<std::size_t> bounds(cases.size() + 1, 0);
  for (const CsvRow& row : rows) {
    ++bounds[row.case_index + 1];
  }
  std::partial_sum(bounds.begin(), bounds.end(), bounds.begin());
  std::vector<CsvRow> grouped(rows.size());
  std::vector<std::size_t> next = bounds;
  for (const CsvRow& row : rows) {
    grouped[next[row.case_index]++] = row;
  }

  EventLog log;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto begin = grouped.begin() + static_cast<std::ptrdiff_t>(bounds[c]);
    const auto end =
        grouped.begin() + static_cast<std::ptrdiff_t>(bounds[c + 1]);
    const bool has_integer =
        std::any_of(begin, end, [](const CsvRow& r) { return r.integer; });
    const bool has_text = std::any_of(begin, end, [](const CsvRow& r) {
      return !r.integer && !r.timestamp.empty();
    });
    if (has_integer && has_text) {
      // No order between the kinds is meaningful: keep file order.
      if (options.strict) {
        return Status::ParseError("CSV case '" + std::string(cases[c]) +
                                  "' mixes integer and text timestamps");
      }
      stats->salvaged_rows += static_cast<std::size_t>(std::count_if(
          begin, end, [](const CsvRow& r) { return !r.salvaged; }));
    } else if (!std::is_sorted(begin, end, TimestampLess)) {
      std::stable_sort(begin, end, TimestampLess);
    }
    Trace trace;
    trace.reserve(bounds[c + 1] - bounds[c]);
    for (auto row = begin; row != end; ++row) {
      trace.push_back(log.InternEvent(row->event));
    }
    log.AddTrace(std::move(trace));
  }
  span.AddArg("traces", static_cast<double>(log.num_traces()));
  span.AddArg("events", static_cast<double>(log.num_events()));
  span.AddArg("salvaged", static_cast<double>(stats->salvaged_rows));
  return log;
}

Result<EventLog> ReadCsvLogFile(const std::string& path,
                                const CsvReadOptions& options,
                                CsvReadStats* stats) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open CSV log file: " + path);
  }
  return ReadCsvLog(file, options, stats);
}

Status WriteCsvLog(const EventLog& log, std::ostream& output) {
  output << "case,event,timestamp\n";
  std::size_t ts = 0;
  for (std::size_t i = 0; i < log.num_traces(); ++i) {
    for (EventId id : log.traces()[i]) {
      output << "t" << i << ',' << log.dictionary().Name(id) << ',' << ts++
             << '\n';
    }
  }
  if (!output) {
    return Status::Internal("I/O failure while writing CSV log");
  }
  return Status::OK();
}

}  // namespace hematch
