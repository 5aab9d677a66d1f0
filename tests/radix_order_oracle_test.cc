// Differential oracle for the radix ordering primitive
// (common/radix_order.h). RadixOrder must return std::stable_sort's
// permutation of any 64-bit keys, and StringOrder std::sort's order of a
// dictionary under std::string::operator< (std::stable_sort's when
// strings repeat). StringOrder keys a string by its first eight bytes, so
// the inputs aim at that key's edges: empty strings, strings of exactly 8
// bytes, shared 8-byte prefixes, embedded NULs ("ab" against "ab\0", which
// key alike), bytes >= 0x80 (char is signed here, but std::string orders
// bytes as unsigned char), a single entry and dictionaries whose every
// entry shares one prefix.

#include "common/radix_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace mdc {
namespace {

std::vector<uint32_t> Iota(size_t n) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), uint32_t{0});
  return order;
}

std::vector<uint32_t> OracleStringOrder(
    const std::vector<std::string>& strings) {
  std::vector<uint32_t> order = Iota(strings.size());
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return strings[a] < strings[b];
  });
  return order;
}

std::vector<uint32_t> Order(const std::vector<std::string>& strings) {
  const std::vector<std::string_view> views(strings.begin(), strings.end());
  return StringOrder(views);
}

// A byte from the alphabet the key's edges care about.
char EdgeByte(Rng& rng) {
  static constexpr unsigned char kBytes[] = {'\0', 'a', 'b', 'z', '0',
                                             '9',  0x7f, 0x80, 0xc3, 0xff};
  return static_cast<char>(kBytes[rng.NextBelow(sizeof(kBytes))]);
}

// A random dictionary of `size` strings. Lengths cluster around 8; a
// share of the entries extends one common prefix, so runs of equal keys
// are long, and some entries are prefixes of others.
std::vector<std::string> RandomStrings(Rng& rng, size_t size, bool unique) {
  std::string prefix;
  const size_t prefix_length = rng.NextBelow(13);
  for (size_t i = 0; i < prefix_length; ++i) prefix += EdgeByte(rng);
  const double shared = rng.NextDouble();
  std::vector<std::string> strings;
  std::vector<std::string> seen;
  while (strings.size() < size) {
    std::string s;
    if (rng.NextBool(shared)) s = prefix.substr(0, rng.NextBelow(13));
    const size_t extra = rng.NextBool(0.3) ? 8 - std::min<size_t>(
                                                     s.size(), 8)
                                           : rng.NextBelow(12);
    for (size_t i = 0; i < extra; ++i) s += EdgeByte(rng);
    if (unique) {
      if (std::find(seen.begin(), seen.end(), s) != seen.end()) continue;
      seen.push_back(s);
    }
    strings.push_back(std::move(s));
  }
  return strings;
}

TEST(RadixOrderOracle, KeysOrderAsStableSort) {
  Rng rng(8101);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = rng.NextBelow(trial < 150 ? 40 : 5000);
    // Keys drawn from few values (ties), from one digit's range (passes
    // skipped) or from the whole 64 bits.
    const int kind = static_cast<int>(rng.NextBelow(3));
    std::vector<uint64_t> keys(n);
    for (uint64_t& key : keys) {
      key = kind == 0   ? rng.NextBelow(5) << 61 | rng.NextBelow(3)
            : kind == 1 ? rng.NextBelow(2048) << 22
                        : rng.NextUint64();
    }
    std::vector<uint32_t> want = Iota(n);
    std::stable_sort(want.begin(), want.end(), [&](uint32_t a, uint32_t b) {
      return keys[a] < keys[b];
    });
    EXPECT_EQ(RadixOrder(n, [&keys](uint32_t i) { return keys[i]; }), want)
        << "trial " << trial;
  }
}

TEST(RadixOrderOracle, RandomDictionariesOrderAsStdSort) {
  Rng rng(8102);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t size = 1 + rng.NextBelow(trial % 10 == 0 ? 600 : 40);
    const std::vector<std::string> strings = RandomStrings(rng, size, true);
    std::vector<uint32_t> want = Iota(size);
    std::sort(want.begin(), want.end(), [&](uint32_t a, uint32_t b) {
      return strings[a] < strings[b];
    });
    ASSERT_EQ(Order(strings), want) << "trial " << trial;
  }
}

TEST(RadixOrderOracle, RepeatedStringsKeepIndexOrder) {
  Rng rng(8103);
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<std::string> strings =
        RandomStrings(rng, 1 + rng.NextBelow(60), false);
    ASSERT_EQ(Order(strings), OracleStringOrder(strings)) << "trial " << trial;
  }
}

TEST(RadixOrderOracle, KeyEdges) {
  using namespace std::string_literals;
  const std::vector<std::vector<std::string>> cases = {
      {},
      {"only"},
      {""},
      {"ab\0"s, "ab", "", "ab\0\0"s, "a", "\0"s},
      {"abcdefgh", "abcdefg", "abcdefghi", "abcdefgh\0"s, "abcdefgg",
       "abcdefgi"},
      {"[60596..60612]", "[60596..60601]", "[60596..606]", "[60596..",
       "[60596..60612]x", "[60597"},
      {"\x80", "\x7f", "\xff\xff", "a\x80", "a\x7f", "", "\xc3\xa9t\xc3\xa9"},
      {"prefix-shared-c", "prefix-shared-a", "prefix-shared-b",
       "prefix-shared", "prefix-s", "prefix-shared-a0"},
  };
  for (const std::vector<std::string>& strings : cases) {
    EXPECT_EQ(Order(strings), OracleStringOrder(strings));
  }
}

}  // namespace
}  // namespace mdc
