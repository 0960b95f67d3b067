#include "cpm/common/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cpm/common/error.hpp"
#include "cpm/common/rng.hpp"

namespace cpm {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.25").as_number(), -3.25);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(Json::parse("2.5E-2").as_number(), 0.025);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\nb")").as_string(), "a\nb");
  EXPECT_EQ(Json::parse(R"("q\"q")").as_string(), "q\"q");
  EXPECT_EQ(Json::parse(R"("back\\slash")").as_string(), "back\\slash");
  EXPECT_EQ(Json::parse(R"("tab\there")").as_string(), "tab\there");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");  // é in UTF-8
  // Plain runs are copied whole; escapes may start, split or end them.
  EXPECT_EQ(Json::parse(R"("\nabc")").as_string(), "\nabc");
  EXPECT_EQ(Json::parse(R"("ab\tcd")").as_string(), "ab\tcd");
  EXPECT_EQ(Json::parse(R"("abc\\")").as_string(), "abc\\");
  EXPECT_EQ(Json::parse(R"("\"\"")").as_string(), "\"\"");
  EXPECT_EQ(Json::parse(R"("a\u0041b\/c\"")").as_string(), "aAb/c\"");
  EXPECT_EQ(Json::parse(R"("")").as_string(), "");
  const std::string hex =
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  EXPECT_EQ(Json::parse("\"" + hex + "\"").as_string(), hex);
  // Non-ASCII bytes are plain: UTF-8 runs pass through unchanged.
  const std::string utf8 = "gr\xc3\xbc\xc3\x9f \xe2\x82\xac \xf0\x9f\x98\x80!";
  EXPECT_EQ(Json::parse("\"" + utf8 + "\"").as_string(), utf8);
  EXPECT_EQ(Json::parse("\"" + utf8 + "\\n" + utf8 + "\"").as_string(),
            utf8 + "\n" + utf8);
}

// A \u escape pair of a high and a low surrogate is one code point past the
// BMP, written as 4 bytes of UTF-8; RFC 8259 documents must be UTF-8.
TEST(JsonParse, SurrogatePairsDecodeToUtf8) {
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
  EXPECT_EQ(Json::parse(R"("\uD83D\uDE00")").as_string(), "\xf0\x9f\x98\x80");
  EXPECT_EQ(Json::parse(R"("\udbff\udfff")").as_string(), "\xf4\x8f\xbf\xbf");
  EXPECT_EQ(Json::parse(R"("\ud800\udc00")").as_string(), "\xf0\x90\x80\x80");
  EXPECT_EQ(Json::parse(R"("x\ud83d\ude00y")").as_string(),
            "x\xf0\x9f\x98\x80y");
  // BMP escapes as before, up to either side of the surrogate range.
  EXPECT_EQ(Json::parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("\u00e9")").as_string(), "\xc3\xa9");
  EXPECT_EQ(Json::parse(R"("\u20ac")").as_string(), "\xe2\x82\xac");
  EXPECT_EQ(Json::parse(R"("\ud7ff")").as_string(), "\xed\x9f\xbf");
  EXPECT_EQ(Json::parse(R"("\ue000")").as_string(), "\xee\x80\x80");
  EXPECT_EQ(Json::parse(R"("\uffff")").as_string(), "\xef\xbf\xbf");
  // parse -> dump -> parse is a fixed point.
  const Json doc = Json::parse(R"({"s":"a\ud83d\ude00b\udbff\udfff\u00e9"})");
  const std::string once = doc.dump();
  EXPECT_EQ(Json::parse(once).dump(), once);
  EXPECT_EQ(Json::parse(once).at("s").as_string(),
            doc.at("s").as_string());
}

TEST(JsonParse, UnpairedSurrogatesArePositionedErrors) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"("\ud83d")", "1:2"},        // high surrogate at the end
      {R"("ab\ud83d\u0041")", "1:4"},  // high, then a non-surrogate escape
      {R"("\ud83dx")", "1:2"},       // high, then a plain character
      {R"("\ud83d\n")", "1:2"},      // high, then another escape
      {R"("\ud83d\ud83d")", "1:2"},  // high, then high
      {R"("x\udc00y")", "1:3"},      // lone low surrogate
      {"[\n\"\\ude00\"]", "2:2"},   // lone low, on line 2
  };
  for (const auto& [text, where] : cases) {
    try {
      (void)Json::parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), "Json parse error at " + where +
                                           ": unpaired surrogate in \\u "
                                           "escape")
          << text;
    }
  }
}

TEST(JsonParse, DuplicateKeysKeepTheFirstMember) {
  const Json j = Json::parse(R"({"a":1,"b":2,"a":3})");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_DOUBLE_EQ(j.at("a").as_number(), 1.0);
  EXPECT_EQ(j.dump(), R"({"a":1,"b":2})");
}

TEST(JsonParse, MembersOutOfOrderDumpSorted) {
  const Json j = Json::parse(R"({"zeta":1,"alpha":{"y":2,"x":3},"mid":[]})");
  EXPECT_EQ(j.dump(), R"({"alpha":{"x":3,"y":2},"mid":[],"zeta":1})");
  EXPECT_EQ(Json::parse(R"({"b":0,"a":0,"c":0,"a":9})").dump(),
            R"({"a":0,"b":0,"c":0})");
}

TEST(JsonParse, ArraysAndObjects) {
  const Json arr = Json::parse("[1, 2, 3]");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_DOUBLE_EQ(arr.at(1).as_number(), 2.0);

  const Json obj = Json::parse(R"({"a": 1, "b": [true, null], "c": {"d": "x"}})");
  ASSERT_TRUE(obj.is_object());
  EXPECT_DOUBLE_EQ(obj.at("a").as_number(), 1.0);
  EXPECT_TRUE(obj.at("b").at(1).is_null());
  EXPECT_EQ(obj.at("c").at("d").as_string(), "x");
  EXPECT_TRUE(obj.contains("a"));
  EXPECT_FALSE(obj.contains("z"));
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_EQ(Json::parse("[]").size(), 0u);
  EXPECT_EQ(Json::parse("{}").size(), 0u);
  EXPECT_EQ(Json::parse("[ ]").size(), 0u);
}

TEST(JsonParse, WhitespaceTolerant) {
  const Json j = Json::parse("  {\n \"a\" :\t[ 1 ,2 ]\r\n}  ");
  EXPECT_EQ(j.at("a").size(), 2u);
}

TEST(JsonParse, ErrorsCarryPositions) {
  try {
    Json::parse("{\n\"a\": [1, }");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2:"), std::string::npos) << msg;  // line 2
  }
  // A control character right after a plain run, and a string cut short.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"[\"abc\x01" "def\"]",
       "1:6: unescaped control character in string"},
      {"{\"k\":\n\"ab\ncd\"}", "2:4: unescaped control character in string"},
      {"\"abc", "1:5: unexpected end of input"},
  };
  for (const auto& [text, what] : cases) {
    try {
      (void)Json::parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), "Json parse error at " + what);
    }
  }
}

TEST(JsonParse, RejectsMalformed) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "01a", "\"unterminated",
        "[1] trailing", "{\"a\" 1}", "\"bad\\escape\\q\"", "nan", "--1"}) {
    EXPECT_THROW(Json::parse(bad), Error) << bad;
  }
}

TEST(JsonAccessors, TypeMismatchThrows) {
  const Json j = Json::parse("{\"a\": 1}");
  EXPECT_THROW(static_cast<void>(j.as_number()), Error);
  EXPECT_THROW(static_cast<void>(j.at("a").as_string()), Error);
  EXPECT_THROW(static_cast<void>(j.at("missing")), Error);
  EXPECT_THROW(static_cast<void>(j.at(std::size_t{0})), Error);
  EXPECT_THROW(static_cast<void>(Json::parse("3").size()), Error);
}

TEST(JsonAccessors, Fallbacks) {
  const Json j = Json::parse(R"({"a": 1, "s": "x"})");
  EXPECT_DOUBLE_EQ(j.number_or("a", 9.0), 1.0);
  EXPECT_DOUBLE_EQ(j.number_or("b", 9.0), 9.0);
  EXPECT_EQ(j.string_or("s", "d"), "x");
  EXPECT_EQ(j.string_or("t", "d"), "d");
}

TEST(JsonAccessors, IntegersAreCheckedBeforeTheCast) {
  const Json j = Json::parse(
      R"({"n": 7, "neg": -5, "frac": 2.5, "huge": 1e300, "top": 2147483647,
          "past": 2147483648, "u53": 9007199254740992})");
  EXPECT_EQ(j.at("n").as_integer(0, 10), 7);
  EXPECT_EQ(j.at("neg").as_integer(-5), -5);
  EXPECT_EQ(j.at("top").as_integer(0), 2147483647);
  EXPECT_EQ(j.at("u53").as_integer<std::uint64_t>(0), 9007199254740992u);
  EXPECT_EQ(j.integer_or("n", 3, 0), 7);
  EXPECT_EQ(j.integer_or("absent", 3, 0), 3);

  auto message_of = [](auto convert) {
    try {
      (void)convert();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message_of([&] { return j.at("huge").as_integer<std::size_t>(0); }),
            "Json: 1e+300 is not an integer in [0, 18446744073709551615]");
  EXPECT_EQ(message_of([&] { return j.at("neg").as_integer<std::uint64_t>(0); }),
            "Json: -5 is not an integer in [0, 18446744073709551615]");
  EXPECT_EQ(message_of([&] { return j.at("frac").as_integer(1); }),
            "Json: 2.5 is not an integer in [1, 2147483647]");
  EXPECT_EQ(message_of([&] { return j.at("n").as_integer(0, 6); }),
            "Json: 7 is not an integer in [0, 6]");
  // 2^31 is one past int's range: rejected before any cast.
  EXPECT_EQ(message_of([&] { return j.at("past").as_integer(0); }),
            "Json: 2147483648 is not an integer in [0, 2147483647]");
  EXPECT_THROW((void)Json(std::numeric_limits<double>::infinity()).as_integer(0),
               Error);
  EXPECT_THROW((void)Json(std::nan("")).as_integer(0), Error);
  EXPECT_THROW((void)Json(18446744073709551616.0).as_integer<std::uint64_t>(0),
               Error);
  EXPECT_THROW((void)j.at("n").as_integer<std::string::size_type>(8), Error);
  EXPECT_THROW((void)Json("7").as_integer(0), Error);
}

TEST(JsonDump, RoundTripsCompact) {
  const std::string doc = R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null}})";
  const Json j = Json::parse(doc);
  EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
  EXPECT_EQ(j.dump(), doc);
}

TEST(JsonDump, PrettyPrintParses) {
  const Json j = Json::parse(R"({"x": [1, {"y": "z"}], "w": 2})");
  const std::string pretty = j.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty).dump(), j.dump());
}

TEST(JsonDump, NumbersRoundTrip) {
  for (double v : {0.0, 1.0, -17.0, 0.1, 1e-9, 123456.789, 3.141592653589793}) {
    const Json j(v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(Json::parse(j.dump()).as_number()),
              std::bit_cast<std::uint64_t>(v))
        << j.dump();
  }
}

// The number text the format defines: an integral |d| < 1e15 as that
// integer, anything else as printf's "%.17g".
std::string printf_number_text(double d) {
  if (std::abs(d) < 1e15 && d == std::trunc(d))
    return std::to_string(static_cast<long long>(d));
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

TEST(JsonDump, NumbersMatchPrintf) {
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                DBL_MIN,
                                DBL_MAX,
                                -DBL_MAX,
                                9007199254740992.0,   // 2^53
                                -9007199254740992.0,
                                9.3e18,               // past 2^63
                                -9.3e18,
                                1e300,
                                -1e300,
                                0.1,
                                1.05,
                                20110516.0};
  for (const double edge : {1e15 - 1, 1e15, 1e15 + 1}) {
    values.push_back(edge);
    values.push_back(-edge);
  }
  Rng rng(271828);
  for (int i = 0; i < 1'000'000; ++i) {
    const double d = std::bit_cast<double>(rng.next_u64());
    if (std::isfinite(d)) values.push_back(d);
  }
  // Random bit patterns are almost never integral or short decimals.
  for (int i = 0; i < 100'000; ++i) {
    const auto n = static_cast<double>(rng.below(1ULL << 54)) - 9e15;
    values.push_back(n);
    values.push_back(n / 1000.0);
  }
  std::size_t mismatches = 0;
  for (const double d : values) {
    const std::string text = Json(d).dump();
    if (text != printf_number_text(d) && ++mismatches <= 10)
      ADD_FAILURE() << text << " != " << printf_number_text(d);
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size();
}

// A number token as the parser has always read it: the scanned bytes
// copied and handed to strtod, which must use all of them and give a
// finite value. Returns the value's bits, or the error message.
std::string strtod_number(const std::string& token) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || !std::isfinite(value))
    return "Json parse error at 1:" + std::to_string(token.size() + 1) +
           ": invalid number '" + token + "'";
  return std::to_string(std::bit_cast<std::uint64_t>(value));
}

std::string parsed_number(const std::string& token) {
  try {
    return std::to_string(
        std::bit_cast<std::uint64_t>(Json::parse(token).as_number()));
  } catch (const Error& e) {
    return e.what();
  }
}

// A random token in the scanner's grammar:
// -?[0-9]+(.[0-9]*)?([eE][+-]?[0-9]*)?
std::string random_number_token(Rng& rng) {
  auto digits = [&rng](std::string& out, std::uint64_t max_count) {
    const std::uint64_t count = rng.below(max_count + 1);
    for (std::uint64_t i = 0; i < count; ++i)
      out.push_back(static_cast<char>('0' + rng.below(10)));
  };
  std::string token;
  if (rng.bernoulli(0.5)) token.push_back('-');
  if (rng.bernoulli(0.2)) token.append(1 + rng.below(3), '0');
  token.push_back(static_cast<char>('0' + rng.below(10)));
  digits(token, rng.bernoulli(0.1) ? 40 : 8);
  if (rng.bernoulli(0.6)) {
    token.push_back('.');
    digits(token, rng.bernoulli(0.1) ? 40 : 12);
  }
  if (rng.bernoulli(0.5)) {
    token.push_back(rng.bernoulli(0.5) ? 'e' : 'E');
    const auto sign = rng.below(3);
    if (sign == 1) token.push_back('+');
    if (sign == 2) token.push_back('-');
    digits(token, 3);
  }
  return token;
}

TEST(JsonParse, NumbersMatchStrtod) {
  std::vector<std::string> tokens = {
      "0", "-0", "007", "-00.50", "1.", "-1.", "1.e5", "1e", "1E+", "1.5e+",
      "2e-", "1e-400", "-1e-400", "-2.4e-324", "2.5e-324", "4.9e-324",
      "1e400", "-1e400", "1.7976931348623157e308", "1.7976931348623159e308",
      "2.2250738585072011e-308", "9007199254740993",
      "123456789012345678901234567890", "0.1000000000000000055511151231257827"};
  Rng rng(314159);
  for (int i = 0; i < 200'000; ++i) tokens.push_back(random_number_token(rng));
  std::size_t mismatches = 0;
  for (const std::string& token : tokens) {
    const std::string expected = strtod_number(token);
    if (parsed_number(token) != expected && ++mismatches <= 10)
      ADD_FAILURE() << token << ": " << parsed_number(token)
                    << " != " << expected;
    // Inside a document the token is followed by more bytes, which the
    // parse must not read.
    if (expected.find("invalid") == std::string::npos) {
      const Json arr = Json::parse("[" + token + ",9]");
      EXPECT_EQ(std::to_string(std::bit_cast<std::uint64_t>(
                    arr.at(std::size_t{0}).as_number())),
                expected)
          << token;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << tokens.size();
}

TEST(JsonParse, NestingAtTheLimitParses) {
  const int n = Json::kMaxNesting;
  const Json arr =
      Json::parse(std::string(static_cast<std::size_t>(n), '[') +
                  std::string(static_cast<std::size_t>(n), ']'));
  EXPECT_TRUE(arr.is_array());
  std::string obj;
  for (int i = 0; i < n; ++i) obj += "{\"a\":";
  obj += "1";
  obj.append(static_cast<std::size_t>(n), '}');
  EXPECT_EQ(Json::parse(obj).at("a").size(), 1u);
}

TEST(JsonParse, NestingPastTheLimitThrows) {
  const int n = Json::kMaxNesting + 1;
  try {
    (void)Json::parse(std::string(static_cast<std::size_t>(n), '[') +
                      std::string(static_cast<std::size_t>(n), ']'));
    ADD_FAILURE() << "array nesting " << n << " parsed";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "Json parse error at 1:257: nesting deeper than 256 levels");
  }
  std::string obj = "\n";
  for (int i = 0; i < n; ++i) obj += "{\"a\":";
  obj += "1";
  obj.append(static_cast<std::size_t>(n), '}');
  try {
    (void)Json::parse(obj);
    ADD_FAILURE() << "object nesting " << n << " parsed";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "Json parse error at 2:1281: nesting deeper than 256 levels");
  }
  // Far past the limit: a positioned error, not a stack overflow.
  EXPECT_THROW((void)Json::parse(std::string(100'000, '[')), Error);
  EXPECT_THROW((void)Json::parse(std::string(100'000, '{')), Error);
}

TEST(JsonDump, StringEscaping) {
  const Json j(std::string("a\"b\\c\nd"));
  EXPECT_EQ(Json::parse(j.dump()).as_string(), "a\"b\\c\nd");
  // Runs that need no escape are written whole, around escapes at their
  // start, middle and end.
  EXPECT_EQ(Json(std::string("\nabc")).dump(), R"("\nabc")");
  EXPECT_EQ(Json(std::string("ab\tcd")).dump(), R"("ab\tcd")");
  EXPECT_EQ(Json(std::string("abc\\")).dump(), R"("abc\\")");
  EXPECT_EQ(Json(std::string("\"\"")).dump(), R"("\"\"")");
  EXPECT_EQ(Json(std::string("a\x01" "b\x1f")).dump(), R"("a\u0001b\u001f")");
  EXPECT_EQ(Json(std::string("\b\f\r")).dump(), R"("\b\f\r")");
  EXPECT_EQ(Json(std::string("a/b")).dump(), R"("a/b")");
  EXPECT_EQ(Json(std::string()).dump(), R"("")");
  EXPECT_EQ(Json(std::string(1, '\0')).dump(), R"("\u0000")");
  const std::string hex =
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  EXPECT_EQ(Json(hex).dump(), "\"" + hex + "\"");
  const std::string utf8 = "\xc3\xa9t\xc3\xa9 \xf0\x9f\x98\x80";
  EXPECT_EQ(Json(utf8 + "\n" + utf8).dump(), "\"" + utf8 + "\\n" + utf8 + "\"");
  JsonObject obj;
  obj["k\"ey"] = "v\\al";
  EXPECT_EQ(Json(std::move(obj)).dump(), R"({"k\"ey":"v\\al"})");
}

TEST(JsonFuzz, RandomMutationsNeverCrash) {
  // Take a valid document and randomly mutate bytes; the parser must
  // either parse or throw cpm::Error — never crash or loop.
  const std::string base =
      R"({"tiers":[{"name":"a","servers":2}],"nums":[1,2.5,-3e2],"s":"x\ny"})";
  Rng rng(13579);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string doc = base;
    const int mutations = 1 + static_cast<int>(rng.below(4));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(rng.below(doc.size()));
      switch (rng.below(3)) {
        case 0:
          doc[pos] = static_cast<char>(rng.below(128));
          break;
        case 1:
          doc.erase(doc.begin() + static_cast<std::ptrdiff_t>(pos));
          break;
        default:
          doc.insert(doc.begin() + static_cast<std::ptrdiff_t>(pos),
                     static_cast<char>(rng.below(128)));
          break;
      }
      if (doc.empty()) doc.assign(1, '0');
    }
    try {
      const Json j = Json::parse(doc);
      // If it parsed, dumping and reparsing must agree.
      EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
    } catch (const Error&) {
      // Expected for most mutations.
    }
  }
}

TEST(JsonFuzz, RandomGarbageNeverCrashes) {
  Rng rng(8642);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string doc;
    const auto len = rng.below(64);
    for (std::uint64_t i = 0; i < len; ++i)
      doc.push_back(static_cast<char>(rng.below(256)));
    try {
      (void)Json::parse(doc);
    } catch (const Error&) {
    }
  }
}

TEST(JsonBuild, ProgrammaticConstruction) {
  JsonObject obj;
  obj["n"] = 3;
  obj["arr"] = Json(JsonArray{Json(1.0), Json("two")});
  const Json j(std::move(obj));
  EXPECT_DOUBLE_EQ(j.at("n").as_number(), 3.0);
  EXPECT_EQ(j.at("arr").at(1).as_string(), "two");
}

}  // namespace
}  // namespace cpm
