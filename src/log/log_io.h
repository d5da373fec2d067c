#ifndef HEMATCH_LOG_LOG_IO_H_
#define HEMATCH_LOG_LOG_IO_H_

#include <iosfwd>
#include <string>

#include "common/result.h"
#include "log/event_log.h"

namespace hematch {

/// Event-log (de)serialization. Two formats are supported:
///
/// 1. **Trace-per-line** (`.tr`): each line is one trace, events separated
///    by whitespace; `#`-prefixed lines are comments. This is the library's
///    native interchange format.
///
/// 2. **Event-per-row CSV** (`.csv`): a header line naming at least the
///    columns `case` and `event` (a `timestamp` column is honored if
///    present), then one row per event occurrence. Rows are grouped by
///    case id; within a case, rows are ordered by timestamp when a
///    timestamp column exists (stable sort, so ties keep file order) and
///    by file order otherwise. This mirrors how logs come out of ERP/OA
///    systems, the paper's data source.
///
/// Timestamps are ordered as integers when all digits and as opaque text
/// otherwise (ISO-8601 sorts correctly as text); an empty or missing
/// timestamp sorts first. The two kinds have no common order, so a case
/// that mixes them fails a strict read with a ParseError naming the
/// case, and a lenient read keeps that case in file order and counts
/// its rows in CsvReadStats::salvaged_rows.

/// Parses a trace-per-line log from `input`.
Result<EventLog> ReadTraceLog(std::istream& input);

/// Parses a trace-per-line log from the file at `path`.
Result<EventLog> ReadTraceLogFile(const std::string& path);

/// Writes `log` in trace-per-line format.
Status WriteTraceLog(const EventLog& log, std::ostream& output);

/// How forgiving the CSV reader is about malformed rows, mirroring
/// XesReadOptions: real exports carry stray BOMs, CRLF line endings,
/// ragged rows (a killed export writes half a line), and rows with an
/// empty case or event cell. A UTF-8 BOM on the header and CR line
/// endings are tolerated in both modes (they are valid encodings, not
/// defects).
struct CsvReadOptions {
  /// Strict mode fails with ParseError on any defective row (too few
  /// fields to reach the case/event columns, or an empty case or event
  /// cell) and on a case that mixes timestamp kinds. Lenient mode
  /// (default) salvages instead — a ragged row that still reaches both
  /// the case and event columns is kept (missing timestamp treated as
  /// absent), any other defective row is skipped, a mixed case keeps
  /// file order — and counts every such row in
  /// CsvReadStats::salvaged_rows (surfaced as the `log.csv_salvaged`
  /// telemetry counter and a `salvaged` span arg).
  bool strict = false;
};

/// What the lenient CSV reader had to forgive.
struct CsvReadStats {
  /// Defective data rows that were salvaged (kept without a timestamp,
  /// or kept in file order in a case that mixes timestamp kinds) or
  /// skipped instead of failing the parse; each row counts at most
  /// once. Always 0 in strict mode.
  std::size_t salvaged_rows = 0;
};

/// Parses an event-per-row CSV log from `input`.
Result<EventLog> ReadCsvLog(std::istream& input,
                            const CsvReadOptions& options = {},
                            CsvReadStats* stats = nullptr);

/// Parses an event-per-row CSV log from the file at `path`.
Result<EventLog> ReadCsvLogFile(const std::string& path,
                                const CsvReadOptions& options = {},
                                CsvReadStats* stats = nullptr);

/// Writes `log` as event-per-row CSV with synthetic increasing timestamps.
Status WriteCsvLog(const EventLog& log, std::ostream& output);

}  // namespace hematch

#endif  // HEMATCH_LOG_LOG_IO_H_
