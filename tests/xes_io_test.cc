// Tests for the XML pull parser and the XES event-log reader/writer.

#include "log/xes_io.h"
#include "log/xml_parser.h"

#include <functional>
#include <sstream>

#include <gtest/gtest.h>

namespace hematch {
namespace {

// ------------------------- XmlParser ---------------------------------

// An owned copy of a token: token views end with the next call or the
// parser, and Drain's parser is gone by the time tests look.
struct OwnedToken {
  XmlParser::TokenKind kind;
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;

  std::string_view Attribute(std::string_view key) const {
    for (const auto& [k, v] : attributes) {
      if (k == key) {
        return v;
      }
    }
    return std::string_view();
  }
};

std::vector<OwnedToken> Drain(std::string_view doc) {
  XmlParser parser(doc);
  std::vector<OwnedToken> tokens;
  for (;;) {
    Result<XmlParser::Token> token = parser.Next();
    EXPECT_TRUE(token.ok()) << token.status();
    if (!token.ok() || token->kind == XmlParser::TokenKind::kEnd) {
      break;
    }
    OwnedToken& owned = tokens.emplace_back(
        OwnedToken{token->kind, std::string(token->name), {}});
    for (const auto& [k, v] : token->attributes) {
      owned.attributes.emplace_back(k, v);
    }
  }
  return tokens;
}

TEST(XmlParserTest, TokenViewsPointIntoTheDocumentUnlessDecoded) {
  const std::string doc =
      R"(<a k="plain" d="x&amp;y"><b v="&lt;"/>&#65;</a>)";
  XmlParser parser(doc);
  const auto inside = [&doc](std::string_view view) {
    const std::less_equal<const char*> le;
    return le(doc.data(), view.data()) &&
           le(view.data() + view.size(), doc.data() + doc.size());
  };
  Result<XmlParser::Token> a = parser.Next();
  ASSERT_TRUE(a.ok()) << a.status();
  const std::string_view name = a->name;
  const std::string_view plain = a->Attribute("k");
  const std::string_view decoded = a->Attribute("d");
  EXPECT_TRUE(inside(name));
  EXPECT_TRUE(inside(a->attributes[0].first));
  EXPECT_TRUE(inside(plain));
  EXPECT_FALSE(inside(decoded));  // Parser-owned decoded copy.
  // Names and values stay valid while the parser lives, however many
  // tokens (and decoded values) follow; only the attribute list is
  // reused.
  for (;;) {
    Result<XmlParser::Token> token = parser.Next();
    ASSERT_TRUE(token.ok()) << token.status();
    if (token->kind == XmlParser::TokenKind::kEnd) {
      break;
    }
  }
  EXPECT_EQ(name, "a");
  EXPECT_EQ(plain, "plain");
  EXPECT_EQ(decoded, "x&y");
}

TEST(XmlParserTest, ElementsAndAttributes) {
  const auto tokens =
      Drain(R"(<a x="1" y='two'><b/>text</a>)");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].kind, XmlParser::TokenKind::kStartElement);
  EXPECT_EQ(tokens[0].name, "a");
  EXPECT_EQ(tokens[0].Attribute("x"), "1");
  EXPECT_EQ(tokens[0].Attribute("y"), "two");
  EXPECT_EQ(tokens[0].Attribute("missing"), "");
  EXPECT_EQ(tokens[1].kind, XmlParser::TokenKind::kStartElement);
  EXPECT_EQ(tokens[2].kind, XmlParser::TokenKind::kEndElement);
  EXPECT_EQ(tokens[2].name, "b");  // Synthesized from <b/>.
  EXPECT_EQ(tokens[3].kind, XmlParser::TokenKind::kText);
  EXPECT_EQ(tokens[3].name, "text");
  EXPECT_EQ(tokens[4].kind, XmlParser::TokenKind::kEndElement);
}

TEST(XmlParserTest, SkipsDeclarationCommentsAndDoctype) {
  const auto tokens = Drain(
      "<?xml version=\"1.0\"?><!-- hi --><!DOCTYPE log><root></root>");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].name, "root");
}

TEST(XmlParserTest, DecodesEntities) {
  const auto tokens =
      Drain(R"(<a v="&lt;&amp;&gt;&quot;&apos;&#65;">x &amp; y</a>)");
  EXPECT_EQ(tokens[0].Attribute("v"), "<&>\"'A");
  EXPECT_EQ(tokens[1].name, "x & y");
}

TEST(XmlParserTest, WhitespaceOnlyTextIsSkipped) {
  const auto tokens = Drain("<a>\n   \t </a>");
  ASSERT_EQ(tokens.size(), 2u);
}

TEST(XmlParserTest, NamesWithColonsAndDots) {
  const auto tokens = Drain(R"(<ns:el k.1="v"/>)");
  EXPECT_EQ(tokens[0].name, "ns:el");
  EXPECT_EQ(tokens[0].Attribute("k.1"), "v");
}

TEST(XmlParserTest, Errors) {
  for (const char* bad :
       {"<a", "<a b></a>", "<a b=></a>", "<a b=\"x></a>", "</>",
        "<a>&bogus;</a>", "<a v=\"&#x110000;\"/>"}) {
    XmlParser parser(bad);
    bool failed = false;
    for (int i = 0; i < 10 && !failed; ++i) {
      Result<XmlParser::Token> token = parser.Next();
      if (!token.ok()) {
        failed = true;
        EXPECT_EQ(token.status().code(), StatusCode::kParseError);
      } else if (token->kind == XmlParser::TokenKind::kEnd) {
        break;
      }
    }
    EXPECT_TRUE(failed) << bad;
  }
}

// --------------------------- XES -------------------------------------

constexpr const char* kXes = R"(<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0">
  <extension name="Concept" prefix="concept"
             uri="http://www.xes-standard.org/concept.xesext"/>
  <global scope="event"><string key="concept:name" value="UNKNOWN"/></global>
  <trace>
    <string key="concept:name" value="order-1"/>
    <event>
      <string key="concept:name" value="receive"/>
      <date key="time:timestamp" value="2014-01-01T10:00:00"/>
    </event>
    <event>
      <string key="concept:name" value="ship"/>
      <date key="time:timestamp" value="2014-01-02T10:00:00"/>
    </event>
  </trace>
  <trace>
    <event><string key="concept:name" value="receive"/></event>
    <event><string key="concept:name" value="cancel"/></event>
  </trace>
</log>)";

TEST(XesIoTest, ParsesTracesAndEventNames) {
  std::istringstream in(kXes);
  Result<EventLog> log = ReadXesLog(in);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_EQ(log->num_traces(), 2u);
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "receive ship");
  EXPECT_EQ(log->TraceToString(log->traces()[1]), "receive cancel");
  EXPECT_EQ(log->num_events(), 3u);
}

TEST(XesIoTest, TimestampsReorderEvents) {
  const char* doc = R"(<log><trace>
    <event><string key="concept:name" value="B"/>
           <date key="time:timestamp" value="2014-02-02"/></event>
    <event><string key="concept:name" value="A"/>
           <date key="time:timestamp" value="2014-01-01"/></event>
  </trace></log>)";
  std::istringstream in(doc);
  Result<EventLog> log = ReadXesLog(in);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "A B");
}

TEST(XesIoTest, PartialTimestampsKeepDocumentOrder) {
  const char* doc = R"(<log><trace>
    <event><string key="concept:name" value="B"/>
           <date key="time:timestamp" value="2014-02-02"/></event>
    <event><string key="concept:name" value="A"/></event>
  </trace></log>)";
  std::istringstream in(doc);
  Result<EventLog> log = ReadXesLog(in);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "B A");
}

TEST(XesIoTest, UnnamedEventsAreSkipped) {
  const char* doc = R"(<log><trace>
    <event><string key="concept:name" value="A"/></event>
    <event><string key="lifecycle:transition" value="complete"/></event>
  </trace></log>)";
  std::istringstream in(doc);
  Result<EventLog> log = ReadXesLog(in);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "A");
}

TEST(XesIoTest, NestedContainerAttributesIgnored) {
  // A list attribute inside an event must not hijack concept:name.
  const char* doc = R"(<log><trace><event>
    <string key="concept:name" value="A"/>
    <list key="listKey">
      <string key="concept:name" value="NOT-THE-NAME"/>
    </list>
  </event></trace></log>)";
  std::istringstream in(doc);
  Result<EventLog> log = ReadXesLog(in);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "A");
}

TEST(XesIoTest, RejectsNonXes) {
  std::istringstream in("<notalog/>");
  Result<EventLog> log = ReadXesLog(in);
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kParseError);
}

TEST(XesIoTest, RejectsEventOutsideTrace) {
  std::istringstream in(
      "<log><event><string key=\"concept:name\" value=\"A\"/></event></log>");
  ASSERT_FALSE(ReadXesLog(in).ok());
}

TEST(XesIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadXesLogFile("/no/such/file.xes").status().code(),
            StatusCode::kNotFound);
}

TEST(XesIoTest, WriteThenReadRoundTrips) {
  EventLog original;
  original.AddTraceByNames({"receive <order>", "pay & check", "ship"});
  original.AddTraceByNames({"receive <order>", "cancel"});
  std::ostringstream out;
  ASSERT_TRUE(WriteXesLog(original, out).ok());
  std::istringstream in(out.str());
  Result<EventLog> parsed = ReadXesLog(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_traces(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(parsed->TraceToString(parsed->traces()[i]),
              original.TraceToString(original.traces()[i]));
  }
}

}  // namespace
}  // namespace hematch
