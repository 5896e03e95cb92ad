#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "base/hash.h"
#include "base/json_out.h"
#include "base/result.h"
#include "base/status.h"
#include "base/string_util.h"

namespace fmtk {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, CopyIsCheap) {
  Status s = Status::Internal("boom");
  Status t = s;
  EXPECT_EQ(t.message(), "boom");
  EXPECT_EQ(t.code(), StatusCode::kInternal);
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kSignatureMismatch),
               "SignatureMismatch");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnsupported), "Unsupported");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Result<int> Doubled(Result<int> in) {
  FMTK_ASSIGN_OR_RETURN(int v, std::move(in));
  return 2 * v;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  Result<int> err = Doubled(Status::Internal("x"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(HashTest, VectorHashDiscriminates) {
  VectorHash<int> h;
  EXPECT_NE(h({1, 2, 3}), h({3, 2, 1}));
  EXPECT_EQ(h({1, 2, 3}), h({1, 2, 3}));
  EXPECT_NE(h({}), h({0}));
}

TEST(HashTest, PairHash) {
  PairHash<int, int> h;
  EXPECT_NE(h({1, 2}), h({2, 1}));
  EXPECT_EQ(h({5, 9}), h({5, 9}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ',').size(), 3u);
  EXPECT_EQ(Split("a,,c", ',')[1], "");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t\n"), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("forall x", "forall"));
  EXPECT_FALSE(StartsWith("for", "forall"));
}

TEST(StringUtilTest, ParseDecimalAcceptsOnlyBoundedDigitStrings) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(ParseDecimal("0", kMax), 0u);
  EXPECT_EQ(ParseDecimal("007", kMax), 7u);
  EXPECT_EQ(ParseDecimal("18446744073709551615", kMax), kMax);
  EXPECT_EQ(ParseDecimal("18446744073709551616", kMax), std::nullopt);
  EXPECT_EQ(ParseDecimal("99999999999999999999999", kMax), std::nullopt);
  EXPECT_EQ(ParseDecimal("4294967295", 4294967295u), 4294967295u);
  EXPECT_EQ(ParseDecimal("4294967296", 4294967295u), std::nullopt);
  EXPECT_EQ(ParseDecimal("9", 9), 9u);
  EXPECT_EQ(ParseDecimal("10", 9), std::nullopt);
  EXPECT_EQ(ParseDecimal("1", 0), std::nullopt);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "0abc", "1e3", "0x10"}) {
    EXPECT_EQ(ParseDecimal(bad, kMax), std::nullopt) << "'" << bad << "'";
  }
}

// --- The shared JSON writer (base/json_out.h, PR 9) -------------------------
// One escaper for every --json surface (lint, diagnostics, --explain, the
// query server): correctness here is what keeps `fmtk_lint --json | jq`
// from choking on a hostile query string.

TEST(JsonOutTest, PlainAsciiPassesThrough) {
  EXPECT_EQ(JsonQuote("hello world"), "\"hello world\"");
  EXPECT_EQ(JsonQuote(""), "\"\"");
}

TEST(JsonOutTest, ShortEscapesForQuoteBackslashAndWhitespace) {
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonQuote("a\nb\tc\rd\be\ff"), "\"a\\nb\\tc\\rd\\be\\ff\"");
}

TEST(JsonOutTest, ControlCharactersBecomeUnicodeEscapes) {
  // The seed escaper passed these through raw, producing invalid JSON.
  EXPECT_EQ(JsonQuote(std::string("\x01", 1)), "\"\\u0001\"");
  EXPECT_EQ(JsonQuote(std::string("\x1f", 1)), "\"\\u001f\"");
  std::string with_nul = "a";
  with_nul += '\0';
  with_nul += 'b';
  EXPECT_EQ(JsonQuote(with_nul), "\"a\\u0000b\"");
}

TEST(JsonOutTest, ValidUtf8PassesThroughUnchanged) {
  EXPECT_EQ(JsonQuote("caf\xc3\xa9"), "\"caf\xc3\xa9\"");            // é
  EXPECT_EQ(JsonQuote("\xe2\x88\x80x"), "\"\xe2\x88\x80x\"");        // ∀x
  EXPECT_EQ(JsonQuote("\xf0\x9f\x98\x80"), "\"\xf0\x9f\x98\x80\"");  // 😀
}

TEST(JsonOutTest, InvalidUtf8BecomesReplacementCharacter) {
  const char* replacement = "\\ufffd";
  // Lone continuation byte.
  EXPECT_EQ(JsonQuote("\x80"), "\"" + std::string(replacement) + "\"");
  // Truncated two-byte sequence at end of string.
  EXPECT_EQ(JsonQuote("a\xc3"), "\"a" + std::string(replacement) + "\"");
  // Overlong encoding of '/'.
  EXPECT_EQ(JsonQuote("\xc0\xaf"),
            "\"" + std::string(replacement) + replacement + "\"");
  // UTF-8-encoded surrogate half (CESU-8) is not valid UTF-8.
  EXPECT_EQ(JsonQuote("\xed\xa0\x80"),
            "\"" + std::string(replacement) + replacement + replacement +
                "\"");
  // Codepoint above U+10FFFF.
  EXPECT_EQ(JsonQuote("\xf4\x90\x80\x80"),
            "\"" + std::string(replacement) + replacement + replacement +
                replacement + "\"");
  // Valid text resumes after the damage.
  EXPECT_EQ(JsonQuote("a\x80z"), "\"a" + std::string(replacement) + "z\"");
}

TEST(JsonOutTest, NumbersAreFiniteAndRoundTrip) {
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(1.5), "1.5");
  EXPECT_EQ(JsonNumber(-3.0), "-3");
  // NaN/inf are not representable in JSON; the writer clamps instead of
  // emitting tokens jq would reject.
  EXPECT_EQ(JsonNumber(std::nan("")), "0");
  EXPECT_NE(JsonNumber(std::numeric_limits<double>::infinity()).find("1e"),
            std::string::npos);
}

}  // namespace
}  // namespace fmtk
