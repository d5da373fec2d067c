#ifndef HEMATCH_LOG_XML_PARSER_H_
#define HEMATCH_LOG_XML_PARSER_H_

#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace hematch {

/// A minimal, dependency-free XML pull parser — just enough for XES
/// event logs (elements, attributes, the five predefined entities,
/// comments, processing instructions, and self-closing tags). Not a
/// general-purpose XML implementation: DTDs, CDATA, namespaces-as-URIs,
/// and mixed-content subtleties are out of scope and rejected or
/// ignored as documented per token kind.
class XmlParser {
 public:
  enum class TokenKind {
    /// `<name attr="v" ...>`
    kStartElement,
    /// `</name>` — also synthesized right after a self-closing element.
    kEndElement,
    /// Non-whitespace character data between tags (entity-decoded).
    kText,
    /// End of input.
    kEnd,
  };

  using Attr = std::pair<std::string_view, std::string_view>;

  /// A token is a set of views; nothing in it is owned. Element names
  /// and attribute keys are views into the document. Text and attribute
  /// values are too, unless they held entity references: those are
  /// decoded into storage the parser keeps until it is destroyed. The
  /// `attributes` list itself is parser storage that the next call to
  /// Next() reuses, so copy out what must outlive that call.
  struct Token {
    TokenKind kind = TokenKind::kEnd;
    /// Element name (start/end) or decoded text content.
    std::string_view name;
    /// Attributes of a start element, in document order.
    std::span<const Attr> attributes;

    /// First value of attribute `key`, or an empty string.
    std::string_view Attribute(std::string_view key) const;
  };

  /// Parses from an in-memory document; `document` must outlive the
  /// parser and every token it returns.
  explicit XmlParser(std::string_view document);

  /// Returns the next token, or a ParseError with the byte offset.
  Result<Token> Next();

  /// Byte offset of the parse cursor (for error reporting / tests).
  std::size_t offset() const { return pos_; }

 private:
  Status Error(const std::string& message) const;
  void SkipWhitespace();
  bool SkipMisc();  // Comments, processing instructions, declarations.
  Result<std::string_view> ReadName();
  /// `raw` itself when it holds no entity, else its decoded copy.
  Result<std::string_view> DecodeEntities(std::string_view raw);

  std::string_view doc_;
  std::size_t pos_ = 0;
  /// Pending synthesized end-element (from `<x/>`).
  std::string_view pending_end_;
  /// Attributes of the current start element, reused across calls.
  std::vector<Attr> attributes_;
  /// Entity-decoded text; a deque never moves what it already holds.
  std::deque<std::string> decoded_;
};

}  // namespace hematch

#endif  // HEMATCH_LOG_XML_PARSER_H_
