#include "log/xml_parser.h"

#include <cctype>

namespace hematch {

namespace {

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == ':';
}

bool IsNameChar(char c) {
  return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) != 0 ||
         c == '-' || c == '.';
}

}  // namespace

std::string_view XmlParser::Token::Attribute(std::string_view key) const {
  for (const auto& [k, v] : attributes) {
    if (k == key) {
      return v;
    }
  }
  return std::string_view();
}

XmlParser::XmlParser(std::string_view document) : doc_(document) {}

Status XmlParser::Error(const std::string& message) const {
  return Status::ParseError("XML error at offset " + std::to_string(pos_) +
                            ": " + message);
}

void XmlParser::SkipWhitespace() {
  while (pos_ < doc_.size() &&
         std::isspace(static_cast<unsigned char>(doc_[pos_])) != 0) {
    ++pos_;
  }
}

bool XmlParser::SkipMisc() {
  if (pos_ + 1 >= doc_.size() || doc_[pos_] != '<') {
    return false;
  }
  // Comment: <!-- ... -->
  if (doc_.compare(pos_, 4, "<!--") == 0) {
    const std::size_t end = doc_.find("-->", pos_ + 4);
    pos_ = end == std::string_view::npos ? doc_.size() : end + 3;
    return true;
  }
  // Processing instruction / XML declaration: <? ... ?>
  if (doc_[pos_ + 1] == '?') {
    const std::size_t end = doc_.find("?>", pos_ + 2);
    pos_ = end == std::string_view::npos ? doc_.size() : end + 2;
    return true;
  }
  // DOCTYPE and other declarations: <! ... > (no nested brackets support;
  // XES files do not carry DTDs in practice).
  if (doc_[pos_ + 1] == '!') {
    const std::size_t end = doc_.find('>', pos_ + 2);
    pos_ = end == std::string_view::npos ? doc_.size() : end + 1;
    return true;
  }
  return false;
}

Result<std::string_view> XmlParser::ReadName() {
  if (pos_ >= doc_.size() || !IsNameStart(doc_[pos_])) {
    return Error("expected a name");
  }
  const std::size_t start = pos_;
  while (pos_ < doc_.size() && IsNameChar(doc_[pos_])) {
    ++pos_;
  }
  return doc_.substr(start, pos_ - start);
}

Result<std::string_view> XmlParser::DecodeEntities(std::string_view raw) {
  std::size_t i = raw.find('&');
  if (i == std::string_view::npos) {
    return raw;
  }
  std::string out(raw.substr(0, i));
  out.reserve(raw.size());
  for (; i < raw.size(); ++i) {
    if (raw[i] != '&') {
      out += raw[i];
      continue;
    }
    const std::size_t semi = raw.find(';', i);
    if (semi == std::string_view::npos) {
      return Error("unterminated entity");
    }
    const std::string_view entity = raw.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      out += '&';
    } else if (entity == "lt") {
      out += '<';
    } else if (entity == "gt") {
      out += '>';
    } else if (entity == "quot") {
      out += '"';
    } else if (entity == "apos") {
      out += '\'';
    } else if (!entity.empty() && entity[0] == '#') {
      // Numeric character reference; ASCII range only.
      const bool hex = entity.size() > 1 && (entity[1] == 'x');
      long code = 0;
      try {
        code = std::stol(std::string(entity.substr(hex ? 2 : 1)), nullptr,
                         hex ? 16 : 10);
      } catch (...) {
        return Error("bad numeric character reference");
      }
      if (code < 1 || code > 127) {
        return Error("non-ASCII character reference unsupported");
      }
      out += static_cast<char>(code);
    } else {
      return Error("unknown entity '&" + std::string(entity) + ";'");
    }
    i = semi;
  }
  return std::string_view(decoded_.emplace_back(std::move(out)));
}

Result<XmlParser::Token> XmlParser::Next() {
  if (!pending_end_.empty()) {
    Token token;
    token.kind = TokenKind::kEndElement;
    token.name = pending_end_;
    pending_end_ = {};
    return token;
  }

  for (;;) {
    // Collect character data up to the next tag.
    const std::size_t text_start = pos_;
    while (pos_ < doc_.size() && doc_[pos_] != '<') {
      ++pos_;
    }
    const std::string_view raw_text =
        doc_.substr(text_start, pos_ - text_start);
    // Report non-whitespace text.
    bool only_space = true;
    for (char c : raw_text) {
      if (std::isspace(static_cast<unsigned char>(c)) == 0) {
        only_space = false;
        break;
      }
    }
    if (!only_space) {
      Token token;
      token.kind = TokenKind::kText;
      HEMATCH_ASSIGN_OR_RETURN(token.name, DecodeEntities(raw_text));
      return token;
    }
    if (pos_ >= doc_.size()) {
      return Token{};  // kEnd.
    }
    if (SkipMisc()) {
      continue;
    }
    break;
  }

  // At '<' of a real tag.
  ++pos_;
  if (pos_ < doc_.size() && doc_[pos_] == '/') {
    ++pos_;
    Token token;
    token.kind = TokenKind::kEndElement;
    HEMATCH_ASSIGN_OR_RETURN(token.name, ReadName());
    SkipWhitespace();
    if (pos_ >= doc_.size() || doc_[pos_] != '>') {
      return Error("expected '>' after end tag");
    }
    ++pos_;
    return token;
  }

  Token token;
  token.kind = TokenKind::kStartElement;
  HEMATCH_ASSIGN_OR_RETURN(token.name, ReadName());
  attributes_.clear();
  for (;;) {
    SkipWhitespace();
    if (pos_ >= doc_.size()) {
      return Error("unterminated start tag");
    }
    if (doc_[pos_] == '>') {
      ++pos_;
      token.attributes = attributes_;
      return token;
    }
    if (doc_[pos_] == '/') {
      if (pos_ + 1 >= doc_.size() || doc_[pos_ + 1] != '>') {
        return Error("expected '/>' in self-closing tag");
      }
      pos_ += 2;
      pending_end_ = token.name;  // Synthesize the matching end element.
      token.attributes = attributes_;
      return token;
    }
    // Attribute.
    HEMATCH_ASSIGN_OR_RETURN(std::string_view attr_name, ReadName());
    SkipWhitespace();
    if (pos_ >= doc_.size() || doc_[pos_] != '=') {
      return Error("expected '=' after attribute name");
    }
    ++pos_;
    SkipWhitespace();
    if (pos_ >= doc_.size() || (doc_[pos_] != '"' && doc_[pos_] != '\'')) {
      return Error("expected quoted attribute value");
    }
    const char quote = doc_[pos_++];
    const std::size_t value_start = pos_;
    while (pos_ < doc_.size() && doc_[pos_] != quote) {
      ++pos_;
    }
    if (pos_ >= doc_.size()) {
      return Error("unterminated attribute value");
    }
    HEMATCH_ASSIGN_OR_RETURN(
        std::string_view value,
        DecodeEntities(doc_.substr(value_start, pos_ - value_start)));
    ++pos_;  // Closing quote.
    attributes_.emplace_back(attr_name, value);
  }
}

}  // namespace hematch
