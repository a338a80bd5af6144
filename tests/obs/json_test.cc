// The one JSON writer and reader: escaping, comma placement, number
// formats (non-finite as null, integral values as integers with the range
// checked first), and that the reader reads back what the writer wrote.

#include "qdcbir/obs/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace qdcbir {
namespace obs {
namespace {

std::string Quoted(std::string_view s) {
  std::string out;
  JsonWriter(&out).String(s);
  return out;
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(Quoted("plain"), "\"plain\"");
  EXPECT_EQ(Quoted("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(Quoted("\n\r\t"), "\"\\n\\r\\t\"");
  EXPECT_EQ(Quoted(std::string("\x01\x1f\0", 3)),
            "\"\\u0001\\u001f\\u0000\"");
  // Bytes from 0x20 up pass through, UTF-8 included.
  EXPECT_EQ(Quoted("/ \x7f caf\xc3\xa9"), "\"/ \x7f caf\xc3\xa9\"");
}

TEST(JsonWriterTest, PlacesCommasBetweenFieldsAndItems) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("a").Uint(1);
  w.Key("b").BeginArray().Int(-2).Bool(true).String("x").EndArray();
  w.Key("c").BeginObject().EndObject();
  w.Key("d").BeginArray().BeginObject().Key("e").Uint(3).EndObject();
  w.BeginObject().EndObject().EndArray();
  w.EndObject();
  EXPECT_EQ(out,
            "{\"a\":1,\"b\":[-2,true,\"x\"],\"c\":{},"
            "\"d\":[{\"e\":3},{}]}");
}

TEST(JsonWriterTest, AppendsToTheCallersString) {
  std::string out = "prefix ";
  JsonWriter(&out).BeginArray().Raw("{\"k\":1}").Raw("[]").EndArray();
  EXPECT_EQ(out, "prefix [{\"k\":1},[]]");
}

TEST(JsonWriterTest, DoubleKeepsTheCallersFormatAndNullsNonFinite) {
  std::string out;
  JsonWriter w(&out);
  w.BeginArray();
  w.Double(1.0 / 3.0, "%.9g").Double(1.0 / 3.0, "%.6g");
  w.Double(2.0004, "%.3f").Double(0.1, "%.17g");
  w.Double(std::numeric_limits<double>::quiet_NaN(), "%.9g");
  w.Double(std::numeric_limits<double>::infinity(), "%.3f");
  w.Double(-std::numeric_limits<double>::infinity(), "%.6g");
  w.EndArray();
  EXPECT_EQ(out,
            "[0.333333333,0.333333,2.000,0.10000000000000001,null,null,"
            "null]");
}

TEST(JsonWriterTest, WideFixedPointRenderingsAreNotTruncated) {
  std::string out;
  JsonWriter(&out).Double(1e300, "%.3f");
  ASSERT_EQ(out.size(), 301u + 4u);
  EXPECT_EQ(out.substr(0, 2), "10");
  EXPECT_EQ(out.substr(out.size() - 4), ".000");
}

TEST(JsonWriterTest, NumberPrintsIntegralValuesAsIntegers) {
  std::string out;
  JsonWriter w(&out);
  w.BeginArray();
  w.Number(3.0, "%.6g").Number(-2.0, "%.6g").Number(-0.0, "%.6g");
  w.Number(0.5, "%.6g").Number(1e19, "%.6g").Number(-1e300, "%.6g");
  w.Number(std::numeric_limits<double>::quiet_NaN(), "%.6g");
  w.Number(std::numeric_limits<double>::infinity(), "%.6g");
  w.EndArray();
  EXPECT_EQ(out, "[3,-2,0,0.5,1e+19,-1e+300,null,null]");
}

TEST(JsonReaderTest, ReadsBackWhatTheWriterWrote) {
  std::string out;
  JsonWriter w(&out);
  const std::string label = std::string("q\"\\\n\r\t\x01 caf\xc3\xa9", 14);
  w.BeginObject().Key("label").String(label).Key("n").Uint(kMaxJsonInteger);
  w.Key("list").BeginArray().Int(-1).Double(0.25, "%.9g").EndArray();
  w.Key("none").Double(std::numeric_limits<double>::quiet_NaN(), "%.9g");
  w.EndObject();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(out, &doc, &error)) << error << "\n" << out;
  ASSERT_NE(doc.Find("label"), nullptr);
  EXPECT_TRUE(doc.Find("label")->is_string());
  EXPECT_EQ(doc.Find("label")->string, label);
  EXPECT_EQ(doc.U64Field("n", 0), kMaxJsonInteger);
  ASSERT_NE(doc.Find("list"), nullptr);
  ASSERT_EQ(doc.Find("list")->items.size(), 2u);
  EXPECT_EQ(doc.Find("list")->items[0].number, -1.0);
  EXPECT_EQ(doc.Find("list")->items[1].number, 0.25);
  EXPECT_EQ(doc.Find("none")->kind, JsonValue::Kind::kNull);
}

TEST(JsonReaderTest, ReportsTheFirstErrorWithItsOffset) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(ParseJson("{\"a\":1,}", &doc, &error));
  EXPECT_EQ(error, "json: expected object key at byte 7");
  EXPECT_FALSE(ParseJson("[1] x", &doc, &error));
  EXPECT_EQ(error, "json: trailing bytes after JSON document at byte 4");
  EXPECT_FALSE(ParseJson("\"a\x01\"", &doc, &error));
  EXPECT_EQ(error, "json: unescaped control character in string at byte 3");
  EXPECT_FALSE(ParseJson(std::string(40, '['), &doc, &error));
  EXPECT_EQ(error, "json: nesting too deep at byte 33");
}

TEST(JsonReaderTest, StringsDecodeToUtf8) {
  JsonValue doc;
  std::string error;
  // Raw UTF-8 passes through; escapes decode to UTF-8, a surrogate pair to
  // its one 4-byte character.
  ASSERT_TRUE(ParseJson("[\"caf\xc3\xa9 \xf0\x9f\x98\x80\", "
                        "\"\\u00e9\\u20ac\\ud83d\\ude00\\uDBFF\\uDFFF\"]",
                        &doc, &error))
      << error;
  EXPECT_EQ(doc.items[0].string, "caf\xc3\xa9 \xf0\x9f\x98\x80");
  EXPECT_EQ(doc.items[1].string,
            "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\xf4\x8f\xbf\xbf");

  // Either surrogate half alone is not text.
  for (const char* text :
       {"\"\\ud83d\"", "\"\\ud83dx\"", "\"\\ud83d\\u0041\"",
        "\"\\ude00\\ud83d\""}) {
    EXPECT_FALSE(ParseJson(text, &doc, &error)) << text;
    EXPECT_NE(error.find("lone surrogate"), std::string::npos) << error;
  }
  EXPECT_FALSE(ParseJson("\"\\ud83d\\ude0\"", &doc, &error));
  EXPECT_EQ(error, "json: bad \\u escape at byte 13");

  // Raw bytes that are not UTF-8: a stray continuation byte, 0xFF, a
  // truncated sequence, an overlong form, an encoded surrogate and a code
  // point above U+10FFFF.
  for (const char* text :
       {"\"\x80\"", "\"a\xff\"", "\"\xc3\"", "\"\xe2\x82\"",
        "\"\xc0\xaf\"", "\"\xe0\x80\xaf\"", "\"\xed\xa0\xbd\"",
        "\"\xf4\x90\x80\x80\""}) {
    EXPECT_FALSE(ParseJson(text, &doc, &error)) << text;
    EXPECT_NE(error.find("invalid UTF-8 in string"), std::string::npos)
        << error;
  }
  EXPECT_FALSE(ParseJson("[\"ok\", \"a\xff\"]", &doc, &error));
  EXPECT_EQ(error, "json: invalid UTF-8 in string at byte 10");
}

TEST(JsonReaderTest, IsUtf8AcceptsOnlyWellFormedText) {
  EXPECT_TRUE(IsUtf8(""));
  EXPECT_TRUE(IsUtf8("plain \x7f caf\xc3\xa9 \xef\xbf\xbd \xf0\x9f\x98\x80"));
  EXPECT_TRUE(IsUtf8(std::string("nul\0byte", 8)));
  EXPECT_FALSE(IsUtf8("\xff"));
  EXPECT_FALSE(IsUtf8("ab\xc3"));
  EXPECT_FALSE(IsUtf8("\xed\xa0\xbd\xed\xb8\x80"));  // a CESU-8 pair
  EXPECT_FALSE(IsUtf8("\xf8\x88\x80\x80\x80"));
}

TEST(JsonReaderTest, ToUintChecksTheRangeOnTheDouble) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(
      ParseJson("[0, 7, 2.5, -1, 1e300, 9007199254740992, \"3\"]", &doc,
                &error))
      << error;
  std::uint64_t out = 99;
  EXPECT_TRUE(doc.items[0].ToUint(10, &out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(doc.items[1].ToUint(10, &out));
  EXPECT_EQ(out, 7u);
  EXPECT_FALSE(doc.items[1].ToUint(6, &out));
  EXPECT_FALSE(doc.items[2].ToUint(10, &out));
  EXPECT_FALSE(doc.items[3].ToUint(10, &out));
  EXPECT_FALSE(doc.items[4].ToUint(kMaxJsonInteger, &out));
  EXPECT_TRUE(doc.items[5].ToUint(kMaxJsonInteger, &out));
  EXPECT_EQ(out, kMaxJsonInteger);
  EXPECT_FALSE(doc.items[6].ToUint(10, &out));
  EXPECT_EQ(out, kMaxJsonInteger);
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
