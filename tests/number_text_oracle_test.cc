// Differential oracle for the number <-> text helpers of common/strings.h.
// The references are the C library calls they replaced, kept here in
// test-local form: printf's "%.*f" (through snprintf into a buffer wide
// enough for DBL_MAX) for FormatDouble and FormatCompact, and strtoll over
// the whitespace-stripped text for ParseInt64.
//
// Reals: over a million random values, each printed with a random digit
// count in 0-17: bit patterns (every exponent, subnormals, infinities and
// NaNs among them), rounding ties and their neighbours, integers, plain
// decimals and subnormals. ±0, the smallest subnormal, ±DBL_MAX, ±inf and
// NaN are printed with every digit count. Ints: a million random strings
// over " \t+-0123456789x." and the edges of the int64 range.

#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"

namespace mdc {
namespace {

std::string ReferenceFormatDouble(double value, int digits) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

std::string ReferenceFormatCompact(double value, int digits) {
  std::string text = ReferenceFormatDouble(value, digits);
  if (text.find('.') == std::string::npos) return text;
  size_t last = text.find_last_not_of('0');
  if (text[last] == '.') --last;
  text.erase(last + 1);
  return text;
}

std::optional<int64_t> ReferenceParseInt64(std::string_view text) {
  std::string buffer(StripWhitespace(text));
  if (buffer.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (errno == ERANGE || end != buffer.c_str() + buffer.size()) {
    return std::nullopt;
  }
  return static_cast<int64_t>(value);
}

double FromBits(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void ExpectFormatsMatch(double value, int digits) {
  EXPECT_EQ(FormatDouble(value, digits), ReferenceFormatDouble(value, digits))
      << "bits " << std::hex << std::bit_cast<uint64_t>(value) << std::dec
      << " digits " << digits;
  EXPECT_EQ(FormatCompact(value, digits),
            ReferenceFormatCompact(value, digits))
      << "bits " << std::hex << std::bit_cast<uint64_t>(value) << std::dec
      << " digits " << digits;
}

TEST(NumberTextOracleTest, FormatDoubleMatchesPrintf) {
  const double kEdges[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           DBL_MIN,
                           -DBL_MIN,
                           DBL_MAX,
                           -DBL_MAX,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           0.5,
                           1.5,
                           2.5,
                           0.125,
                           1e-7,
                           9.9999995e-7,
                           0.30000001,
                           1e22,
                           9007199254740993.0};
  for (double value : kEdges) {
    for (int digits = 0; digits <= 17; ++digits) {
      ExpectFormatsMatch(value, digits);
    }
  }
  Rng rng(20261019);
  size_t checked = 0;
  auto check = [&](double value) {
    ExpectFormatsMatch(value, static_cast<int>(rng.NextBelow(18)));
    ++checked;
  };
  while (checked < 1000000 && !HasFailure()) {
    // Any bit pattern: every exponent, subnormals, infinities, NaNs.
    check(FromBits(rng.NextUint64()));
    // Ties and near-ties of the rounding at some digit count.
    const int scale = static_cast<int>(rng.NextBelow(18));
    const double tie =
        (static_cast<double>(rng.NextInt(-1000000, 1000000)) + 0.5) /
        std::pow(10.0, scale);
    check(tie);
    check(std::nextafter(tie, 0.0));
    // Integers and plain decimals, the cells a census column holds.
    check(static_cast<double>(
        rng.NextInt(-(int64_t{1} << 60), int64_t{1} << 60)));
    check(rng.NextDouble() * 200.0 - 100.0);
    // Subnormals.
    check(FromBits(rng.NextBelow(uint64_t{1} << 52)));
  }
  EXPECT_GE(checked, 1000000u);
}

TEST(NumberTextOracleTest, ParseInt64MatchesStrtoll) {
  const char* kEdges[] = {"9223372036854775807",  "9223372036854775808",
                          "9223372036854775806",  "-9223372036854775808",
                          "-9223372036854775809", "-9223372036854775807",
                          "+9223372036854775807", "+-5",
                          "-+5",                  "++5",
                          "--5",                  "+",
                          "-",                    "",
                          " ",                    " +0 ",
                          "-0",                   "00000000000000000000042",
                          "\t-7\t",               "4x",
                          "0x10",                 "1.0",
                          "1 2",                  "99999999999999999999999"};
  for (const char* text : kEdges) {
    EXPECT_EQ(ParseInt64(text), ReferenceParseInt64(text)) << "'" << text
                                                           << "'";
  }
  static constexpr char kAlphabet[] = " \t+-0123456789x.";
  Rng rng(1019);
  size_t parsed = 0;
  for (int i = 0; i < 1000000; ++i) {
    std::string text;
    // Mostly short strings, so that many parse; some long enough to
    // overflow.
    const size_t length =
        rng.NextBool(0.8) ? rng.NextBelow(8) : rng.NextBelow(26);
    for (size_t c = 0; c < length; ++c) {
      // Digits twice as likely as the rest.
      const size_t pick = rng.NextBelow(26);
      text += pick < 16 ? kAlphabet[pick] : kAlphabet[4 + (pick - 16)];
    }
    const std::optional<int64_t> want = ReferenceParseInt64(text);
    ASSERT_EQ(ParseInt64(text), want) << "'" << text << "'";
    parsed += want.has_value();
  }
  // The draw reaches the accepting paths, not only the rejecting ones.
  EXPECT_GT(parsed, 100000u);
}

}  // namespace
}  // namespace mdc
