#include "log/xes_io.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>
#include <vector>

#include "log/text_input.h"
#include "log/xml_parser.h"
#include "obs/trace.h"

namespace hematch {

namespace {

// Views into the document or the parser's decoded text; both outlive
// the XesReader::Read call that collects and consumes them.
struct XesEvent {
  std::string_view name;       // concept:name
  std::string_view timestamp;  // time:timestamp (optional)
};

std::string EscapeXml(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

bool HasAttribute(const XmlParser::Token& token, std::string_view key) {
  for (const auto& [k, v] : token.attributes) {
    if (k == key) {
      return true;
    }
  }
  return false;
}

/// The reader proper: an explicit element stack plus the XES-level
/// state (current trace / current event), so truncation and mismatched
/// tags are detected positively instead of corrupting state.
class XesReader {
 public:
  explicit XesReader(const XesReadOptions& options) : options_(options) {}

  Result<EventLog> Read(std::string_view document) {
    XmlParser parser(document);
    for (;;) {
      Result<XmlParser::Token> token = parser.Next();
      if (!token.ok()) {
        // Malformed XML mid-document (truncated tag, bad entity, ...).
        if (options_.strict) {
          return token.status();
        }
        break;  // Lenient: salvage what was completed.
      }
      if (token->kind == XmlParser::TokenKind::kEnd) {
        if (!stack_.empty() && options_.strict) {
          return Status::ParseError("truncated XES document: <" +
                                    std::string(stack_.back()) +
                                    "> never closed");
        }
        break;
      }
      if (token->kind == XmlParser::TokenKind::kText) {
        continue;  // XES carries data in attributes, not text nodes.
      }
      Status handled = token->kind == XmlParser::TokenKind::kStartElement
                           ? HandleStart(*token, parser.offset())
                           : HandleEnd(*token);
      if (!handled.ok()) {
        return handled;
      }
      if (stopped_) {
        break;  // Lenient depth overflow: keep the traces so far.
      }
    }
    if (!saw_log_) {
      return Status::ParseError("no <log> element found (not an XES file?)");
    }
    return std::move(log_);
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  bool in_trace() const { return trace_depth_ != kNone; }
  bool in_event() const { return event_depth_ != kNone; }

  Status HandleStart(const XmlParser::Token& token, std::size_t offset) {
    if (stack_.size() >= options_.max_depth) {
      if (options_.strict) {
        return Status::ParseError(
            "XES nesting deeper than " + std::to_string(options_.max_depth) +
            " elements at offset " + std::to_string(offset));
      }
      stopped_ = true;
      return Status::OK();
    }
    if (token.name == "log") {
      saw_log_ = true;
    } else if (token.name == "trace") {
      if (in_trace()) {
        if (options_.strict) {
          return Status::ParseError("nested <trace> elements");
        }
        // Lenient: treat the inner <trace> as an opaque container.
      } else {
        trace_depth_ = stack_.size();
        trace_events_.clear();
      }
    } else if (token.name == "event") {
      if (!in_trace()) {
        return Status::ParseError("<event> outside a <trace>");
      }
      if (in_event()) {
        if (options_.strict) {
          return Status::ParseError("nested <event> elements");
        }
        // Lenient: opaque container; attributes inside won't be at the
        // event's attribute depth, so they are ignored anyway.
      } else {
        event_depth_ = stack_.size();
        current_event_ = XesEvent{};
      }
    } else if (in_event() && stack_.size() == event_depth_ + 1) {
      // A direct child of the <event>: a candidate attribute. Container
      // attributes nested deeper (lists etc.) are ignored.
      const std::string_view key = token.Attribute("key");
      if (token.name == "string" && key == "concept:name") {
        if (options_.strict && !HasAttribute(token, "value")) {
          return Status::ParseError(
              "concept:name attribute without a value");
        }
        current_event_.name = token.Attribute("value");
      } else if (token.name == "date" && key == "time:timestamp") {
        if (options_.strict && !HasAttribute(token, "value")) {
          return Status::ParseError(
              "time:timestamp attribute without a value");
        }
        current_event_.timestamp = token.Attribute("value");
      }
    }
    stack_.push_back(token.name);
    return Status::OK();
  }

  Status HandleEnd(const XmlParser::Token& token) {
    if (!stack_.empty() && stack_.back() == token.name) {
      return CloseTop();
    }
    if (options_.strict) {
      return Status::ParseError(
          "mismatched end tag </" + std::string(token.name) +
          "> (open element is <" +
          std::string(stack_.empty() ? "none" : stack_.back()) + ">)");
    }
    // Lenient: close up to the matching open element if one exists;
    // a stray end tag with no matching open is ignored.
    const auto match =
        std::find(stack_.rbegin(), stack_.rend(), token.name);
    if (match == stack_.rend()) {
      return Status::OK();
    }
    const std::size_t target = stack_.size() - 1 -
                               (match - stack_.rbegin());
    while (stack_.size() > target) {
      Status closed = CloseTop();
      if (!closed.ok()) {
        return closed;
      }
    }
    return Status::OK();
  }

  /// Pops the innermost element and runs the XES semantics its closure
  /// triggers (event finalized, trace finalized).
  Status CloseTop() {
    stack_.pop_back();
    if (in_event() && stack_.size() == event_depth_) {
      event_depth_ = kNone;
      if (current_event_.name.empty()) {
        if (options_.strict) {
          return Status::ParseError("<event> without a concept:name");
        }
        return Status::OK();  // Lenient: skip unnamed events.
      }
      trace_events_.push_back(current_event_);
    } else if (in_trace() && stack_.size() == trace_depth_) {
      trace_depth_ = kNone;
      FinalizeTrace();
    }
    return Status::OK();
  }

  void FinalizeTrace() {
    if (trace_events_.empty()) {
      return;  // Traces with no named events are dropped.
    }
    // Re-sort by timestamp only when every event carries one
    // (stable: XES document order breaks ties).
    const bool all_timestamped = std::all_of(
        trace_events_.begin(), trace_events_.end(),
        [](const XesEvent& e) { return !e.timestamp.empty(); });
    if (all_timestamped) {
      std::stable_sort(trace_events_.begin(), trace_events_.end(),
                       [](const XesEvent& a, const XesEvent& b) {
                         return a.timestamp < b.timestamp;
                       });
    }
    Trace trace;
    trace.reserve(trace_events_.size());
    for (const XesEvent& e : trace_events_) {
      trace.push_back(log_.InternEvent(e.name));
    }
    log_.AddTrace(std::move(trace));
    trace_events_.clear();
  }

  const XesReadOptions options_;
  EventLog log_;
  std::vector<std::string_view> stack_;  // Element names, document views.
  bool saw_log_ = false;
  bool stopped_ = false;
  std::size_t trace_depth_ = kNone;
  std::size_t event_depth_ = kNone;
  std::vector<XesEvent> trace_events_;
  XesEvent current_event_;
};

}  // namespace

Result<EventLog> ReadXesLog(std::istream& input,
                            const XesReadOptions& options) {
  // Ambient recorder: ingestion signatures predate tracing (obs/trace.h).
  obs::ScopedSpan span(obs::AmbientTraceRecorder(), "log.read_xes", "log");
  std::string document;
  if (!internal::ReadWholeStream(input, &document)) {
    return Status::ParseError("I/O failure while reading XES log");
  }
  span.AddArg("bytes", static_cast<double>(document.size()));
  Result<EventLog> log = XesReader(options).Read(document);
  if (log.ok()) {
    span.AddArg("traces", static_cast<double>(log->num_traces()));
    span.AddArg("events", static_cast<double>(log->num_events()));
  }
  return log;
}

Result<EventLog> ReadXesLogFile(const std::string& path,
                                const XesReadOptions& options) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open XES file: " + path);
  }
  return ReadXesLog(file, options);
}

Status WriteXesLog(const EventLog& log, std::ostream& output) {
  output << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
         << "<log xes.version=\"1.0\" xes.features=\"\">\n"
         << "  <extension name=\"Concept\" prefix=\"concept\" "
            "uri=\"http://www.xes-standard.org/concept.xesext\"/>\n";
  for (std::size_t t = 0; t < log.num_traces(); ++t) {
    output << "  <trace>\n"
           << "    <string key=\"concept:name\" value=\"t" << t << "\"/>\n";
    for (EventId id : log.traces()[t]) {
      output << "    <event>\n"
             << "      <string key=\"concept:name\" value=\""
             << EscapeXml(log.dictionary().Name(id)) << "\"/>\n"
             << "    </event>\n";
    }
    output << "  </trace>\n";
  }
  output << "</log>\n";
  if (!output) {
    return Status::Internal("I/O failure while writing XES log");
  }
  return Status::OK();
}

}  // namespace hematch
