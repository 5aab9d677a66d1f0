// The one ordering primitive over 64-bit keys: a stable LSD radix sort.
//
// RadixOrder returns index order by key, ties in index order — exactly the
// permutation std::stable_sort gives with `key(a) < key(b)` as the
// comparator — in linear passes. Doubles order through it with their
// order-preserving key (StableOrder, core/permutation_metrics.h), and
// strings through StringOrder below, keyed by their first eight bytes.
// The permutation model, rank swapping, microaggregation, the dictionary
// order of EncodedView and Mondrian's class order all sort with it.

#ifndef MDC_COMMON_RADIX_ORDER_H_
#define MDC_COMMON_RADIX_ORDER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace mdc {

// The indices 0..n-1 in ascending `key(i)` order (a uint64_t for each
// uint32_t index), ties in index order. 11-bit digits: six counting passes
// cover the key. The digit histograms of every pass are counted in one
// sweep up front (permuting the indices leaves them unchanged); a pass
// whose digit is the same for every index would only copy, so it is
// skipped. Only indices move: each pass calls `key` again, so the working
// set beyond the result is one more index array. Precondition: n < 2^32
// (MDC_CHECKed).
template <typename KeyOf>
std::vector<uint32_t> RadixOrder(size_t n, KeyOf key) {
  constexpr int kDigitBits = 11;
  constexpr int kPasses = (64 + kDigitBits - 1) / kDigitBits;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  const auto digit = [](uint64_t k, int pass) {
    return static_cast<size_t>((k >> (pass * kDigitBits)) & (kBuckets - 1));
  };
  MDC_CHECK(n <= std::numeric_limits<uint32_t>::max());
  std::vector<uint32_t> order(n), next_order(n);
  std::vector<uint32_t> counts(kPasses * kBuckets, 0);
  for (size_t i = 0; i < n; ++i) {
    order[i] = static_cast<uint32_t>(i);
    const uint64_t k = key(static_cast<uint32_t>(i));
    for (int p = 0; p < kPasses; ++p) ++counts[p * kBuckets + digit(k, p)];
  }
  for (int p = 0; p < kPasses && n > 0; ++p) {
    uint32_t* offset = &counts[p * kBuckets];
    if (offset[digit(key(0), p)] == n) continue;
    uint32_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t count = offset[b];
      offset[b] = sum;
      sum += count;
    }
    // Indices scatter in their current order, so equal digits keep it:
    // each pass is stable, and equal keys stay in index order.
    for (const uint32_t i : order) next_order[offset[digit(key(i), p)]++] = i;
    order.swap(next_order);
  }
  return order;
}

// The indices of `strings` in ascending std::string order (bytes compared
// as unsigned char), equal strings in index order: std::stable_sort's
// permutation. A string's key is its first eight bytes read big-endian,
// zero-padded, so keys order as the strings' prefixes do; a run of equal
// keys — strings that share their first eight bytes, or differ only by
// trailing NULs within them, like "ab" and "ab\0" — is finished by
// comparing the strings.
std::vector<uint32_t> StringOrder(std::span<const std::string_view> strings);

}  // namespace mdc

#endif  // MDC_COMMON_RADIX_ORDER_H_
