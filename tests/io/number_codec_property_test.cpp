// Property tests of the JSON number codec against its oracles
// (tests/support/property.hpp). The writer must print the bytes of printf
// "%.0f" (integers below 1e15) or "%.17g" (every other value); the reader
// must turn every token into the double strtod reads from it, bit for bit
// (underflow accepted as strtod rounds it, overflow refused); and
// parse(dump(x)) must be bit-identical to x.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "quest/io/json.hpp"
#include "support/property.hpp"

namespace quest::io {
namespace {

using test::Property_config;

std::uint64_t bits_of(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof d);
  return bits;
}

double from_bits(std::uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

/// The writer's oracle, computed here with printf.
std::string printf_bytes(double d) {
  char buffer[64];
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    std::snprintf(buffer, sizeof buffer, "%.0f", d);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.17g", d);
  }
  return buffer;
}

/// The reader against strtod on one token: the same bits when strtod
/// reads a finite value, a Parse_error when it overflows.
::testing::AssertionResult reads_as_strtod(const std::string& token) {
  const double oracle = std::strtod(token.c_str(), nullptr);
  try {
    const double parsed = Json::parse(token).as_number();
    if (!std::isfinite(oracle)) {
      return ::testing::AssertionFailure()
             << "'" << token << "' overflows, yet parsed as " << parsed;
    }
    if (bits_of(parsed) != bits_of(oracle)) {
      return ::testing::AssertionFailure()
             << "'" << token << "' parsed as bits " << bits_of(parsed)
             << ", strtod reads bits " << bits_of(oracle);
    }
  } catch (const Parse_error& error) {
    if (std::isfinite(oracle)) {
      return ::testing::AssertionFailure()
             << "'" << token << "' refused (" << error.what()
             << ") but strtod reads " << oracle;
    }
  }
  return ::testing::AssertionSuccess();
}

/// All three laws for one finite double.
::testing::AssertionResult codec_laws(double x) {
  const std::string dumped = Json(x).dump();
  const std::string expected = printf_bytes(x);
  if (dumped != expected) {
    return ::testing::AssertionFailure()
           << "dump of bits " << bits_of(x) << " is '" << dumped
           << "', printf gives '" << expected << "'";
  }
  if (auto read = reads_as_strtod(dumped); !read) return read;
  const double parsed = Json::parse(dumped).as_number();
  if (bits_of(parsed) != bits_of(x)) {
    return ::testing::AssertionFailure()
           << "parse(dump(x)) of bits " << bits_of(x) << " ('" << dumped
           << "') came back as bits " << bits_of(parsed);
  }
  return ::testing::AssertionSuccess();
}

double gen_finite_bits(Rng& rng) {
  for (;;) {
    const double d = from_bits(rng());
    if (std::isfinite(d)) return d;
  }
}

/// A value whose exact decimal expansion has 18 significant digits, the
/// last a 5: "%.17g" must break the tie exactly as to_chars does. It is
/// M / 2^k with M odd, so its expansion is M * 5^k / 10^k.
double gen_writer_tie(Rng& rng) {
  const int k = static_cast<int>(rng.uniform_int(std::int64_t{2}, 25));
  const double five_k = std::pow(5.0, k);
  const double lo = std::ceil(1e17 / five_k);
  const double hi = std::min(std::floor(1e18 / five_k), 9007199254740991.0);
  const auto m = static_cast<std::uint64_t>(
      lo + std::floor(rng.uniform() * (hi - lo)));
  const double value = std::ldexp(static_cast<double>(m | 1), -k);
  return rng.bernoulli(0.5) ? value : -value;
}

/// The exact decimal expansion of the midpoint between a random double
/// and its successor: the reader must round the tie to even, as strtod.
std::string gen_reader_tie(Rng& rng) {
  double x = std::fabs(gen_finite_bits(rng));
  if (x == DBL_MAX) x = std::nextafter(x, 0.0);
  const long double midpoint =
      (static_cast<long double>(x) +
       static_cast<long double>(std::nextafter(x, DBL_MAX))) /
      2.0L;
  std::vector<char> buffer(1200);
  std::snprintf(buffer.data(), buffer.size(), "%.800Lg", midpoint);
  return buffer.data();
}

/// The midpoint between a double and its successor, rounded to 19
/// significant digits: a token a hair off a tie, which a reader that
/// rounds twice can push onto the wrong side; it must round as strtod
/// does.
std::string gen_near_tie_token(Rng& rng) {
  const double x = rng.uniform(1e-8, 1e8);
  const long double midpoint =
      (static_cast<long double>(x) +
       static_cast<long double>(std::nextafter(x, DBL_MAX))) /
      2.0L;
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.18Le", midpoint);
  return buffer;
}

/// A random decimal token. Half are short (at most 19 significant digits,
/// exponent within ±30), half long (up to 45 digits, exponent spanning
/// the subnormal and overflow ranges, where the strtod fallback runs).
std::string gen_token(Rng& rng) {
  const bool short_form = rng.bernoulli(0.5);
  std::string token = rng.bernoulli(0.3) ? "-" : "";
  const auto digit = [&rng] {
    return static_cast<char>('0' + rng.uniform_int(std::uint64_t{10}));
  };
  if (rng.bernoulli(0.2)) {
    token += "0.";  // leading zeros before the significant digits
    const auto zeros = rng.uniform_int(std::uint64_t{6});
    for (std::uint64_t i = 0; i < zeros; ++i) token.push_back('0');
  }
  const bool fraction_started = !token.empty() && token.back() != '-';
  const auto count = rng.uniform_int(std::uint64_t{short_form ? 19u : 45u}) + 1;
  token.push_back(static_cast<char>('1' + rng.uniform_int(std::uint64_t{9})));
  const auto point = fraction_started ? count : rng.uniform_int(count) + 1;
  for (std::uint64_t i = 1; i < count; ++i) {
    if (i == point) token.push_back('.');
    token.push_back(digit());
  }
  const std::int64_t reach = short_form ? 30 : 420;
  token.push_back('e');
  token += std::to_string(rng.uniform_int(-reach, reach));
  return token;
}

TEST(Number_codec_property, RandomBitPatternsMatchPrintfAndStrtod) {
  test::check_property<double>("dump == printf, parse == strtod, round trip",
                               Property_config{20000}, gen_finite_bits,
                               codec_laws);
}

TEST(Number_codec_property, IntegersAround1e15SwitchFormatsLikePrintf) {
  test::check_property<double>(
      "integers near the %.0f / %.17g switch", Property_config{4000},
      [](Rng& rng) {
        const double offset = static_cast<double>(
            rng.uniform_int(std::int64_t{-2000}, 2000));
        const double base = rng.bernoulli(0.5) ? 1e15 : 1e16;
        const double value = base + offset;
        return rng.bernoulli(0.5) ? value : -value;
      },
      codec_laws);
  test::check_property<double>(
      "integers below 2^53", Property_config{4000},
      [](Rng& rng) {
        return static_cast<double>(
            rng.uniform_int(std::uint64_t{9007199254740992}));
      },
      codec_laws);
}

TEST(Number_codec_property, SeventeenDigitTiesPrintLikePrintf) {
  test::check_property<double>("18th digit 5: the writer breaks the tie",
                               Property_config{4000}, gen_writer_tie,
                               codec_laws);
}

TEST(Number_codec_property, HalfwayTokensRoundLikeStrtod) {
  test::check_property<std::string>("midpoints round half to even",
                                    Property_config{2000}, gen_reader_tie,
                                    reads_as_strtod);
}

TEST(Number_codec_property, NearTieTokensReadLikeStrtod) {
  test::check_property<std::string>("19-digit roundings of midpoints",
                                    Property_config{4000},
                                    gen_near_tie_token, reads_as_strtod);
}

TEST(Number_codec_property, RandomTokensReadLikeStrtod) {
  test::check_property<std::string>(
      "any token, subnormal and overflow ranges included",
      Property_config{20000}, gen_token, reads_as_strtod);
}

TEST(Number_codec_property, EdgeValues) {
  const double edges[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      3 * std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0),  // the largest subnormal
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      1e15,
      -1e15,
      std::nextafter(1e15, 0.0),
      std::nextafter(1e15, 2e15),
      1e15 - 1,
      1e15 + 1,
      0.1,
      1.0 / 3.0,
      9007199254740993.0,
      123456789012345678.0,
  };
  for (const double x : edges) EXPECT_TRUE(codec_laws(x));
}

TEST(Number_codec_property, EdgeTokens) {
  // Underflow reads as strtod rounds it (±0 or the nearest subnormal);
  // overflow is refused.
  const char* tokens[] = {
      "1e-400",
      "-1e-400",
      "1e400",
      "-1e400",
      "2e-324",
      "2.4703282292062327e-324",
      "2.4703282292062328e-324",
      "3e-324",
      "4.9406564584124654e-324",
      "2.2250738585072011e-308",
      "2.2250738585072014e-308",
      "1.7976931348623157e308",
      "1.7976931348623158e308",
      "1.7976931348623159e308",
      "0e999",
      "-0",
      "0.000000000000000000000000000001e-300",
      "100000000000000000000000000000000000000000000000000e-400",
  };
  for (const char* token : tokens) EXPECT_TRUE(reads_as_strtod(token));
  EXPECT_EQ(bits_of(Json::parse("1e-400").as_number()), bits_of(0.0));
  EXPECT_EQ(bits_of(Json::parse("-1e-400").as_number()), bits_of(-0.0));
  EXPECT_THROW(Json::parse("1e400"), Parse_error);
  EXPECT_THROW(Json::parse("[-1e400]"), Parse_error);
}

}  // namespace
}  // namespace quest::io
