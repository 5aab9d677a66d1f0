// Differential oracle for StableOrder (core/permutation_metrics.h), the
// radix ordering behind RankVector, rank swapping and microaggregation.
// The oracles are those three as they were written on std::stable_sort:
// an indirect stable sort with `values[a] < values[b]` as the comparator,
// the same Fenwick rank-swap sweep and the same MDAV grouping. On every
// input the production code must match them exactly: orders and ranks as
// integers, released columns bit for bit (memcmp). `==` on doubles is not
// enough, because it cannot tell −0.0 from +0.0, and which signed zero a
// swap moves into which row depends on the tie order.
//
// Inputs: heavy ties, mixed signed zeros, the extremes of the double range
// (subnormals, ±DBL_MIN, ±DBL_MAX), int64 values beyond 2^53, all-equal,
// ascending and descending columns and uniform reals, at sizes that hit
// the empty, single-row and bucket-boundary cases (255/256/257, 65537),
// plus 200 random columns mixing every kind.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "anonymize/perturb/perturb.h"
#include "common/rng.h"
#include "core/permutation_metrics.h"

namespace mdc {
namespace {

// ---------------------------------------------------------------------------
// Oracles: the std::stable_sort code StableOrder replaced.

std::vector<uint32_t> OracleOrder(const std::vector<double>& values) {
  std::vector<uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return values[a] < values[b];
  });
  return order;
}

std::vector<uint32_t> OracleRankVector(const std::vector<double>& values) {
  const std::vector<uint32_t> order = OracleOrder(values);
  std::vector<uint32_t> ranks(values.size());
  for (size_t r = 0; r < order.size(); ++r) {
    ranks[order[r]] = static_cast<uint32_t>(r);
  }
  return ranks;
}

// The rank-swap kernel's Fenwick tree over still-unswapped ranks.
class OracleFreeRankTree {
 public:
  explicit OracleFreeRankTree(size_t n) : n_(n), tree_(n + 1, 1) {
    tree_[0] = 0;
    for (size_t i = 1; i <= n_; ++i) {
      const size_t parent = i + (i & (~i + 1));
      if (parent <= n_) tree_[parent] += tree_[i];
    }
    while ((size_t{1} << (log2_ + 1)) <= n_) ++log2_;
  }

  size_t CountThrough(size_t rank) const {
    size_t count = 0;
    for (size_t i = rank + 1; i > 0; i -= i & (~i + 1)) count += tree_[i];
    return count;
  }

  size_t SelectKth(size_t k) const {
    size_t pos = 0;
    for (size_t step = size_t{1} << log2_; step > 0; step >>= 1) {
      const size_t next = pos + step;
      if (next <= n_ && tree_[next] < k) {
        pos = next;
        k -= tree_[next];
      }
    }
    return pos;
  }

  void Clear(size_t rank) {
    for (size_t i = rank + 1; i <= n_; i += i & (~i + 1)) --tree_[i];
  }

 private:
  size_t n_;
  size_t log2_ = 0;
  std::vector<size_t> tree_;
};

std::vector<double> OracleRankSwap(const std::vector<double>& values,
                                   double window, uint64_t seed) {
  const size_t n = values.size();
  std::vector<double> out(values);
  if (n < 2) return out;
  std::vector<size_t> row_of_rank(n);
  std::iota(row_of_rank.begin(), row_of_rank.end(), size_t{0});
  std::stable_sort(row_of_rank.begin(), row_of_rank.end(),
                   [&](size_t a, size_t b) { return values[a] < values[b]; });
  const size_t w = std::max<size_t>(
      1, static_cast<size_t>(window * static_cast<double>(n)));
  Rng rng(seed);
  std::vector<bool> swapped(n, false);
  OracleFreeRankTree free_ranks(n);
  for (size_t r = 0; r < n; ++r) {
    if (swapped[r]) continue;
    const size_t hi = std::min(n - 1, r + w);
    const size_t through_r = free_ranks.CountThrough(r);
    const size_t candidates = free_ranks.CountThrough(hi) - through_r;
    if (candidates == 0) {
      swapped[r] = true;
      continue;
    }
    const size_t pick = rng.NextBelow(candidates);
    const size_t partner = free_ranks.SelectKth(through_r + pick + 1);
    std::swap(out[row_of_rank[r]], out[row_of_rank[partner]]);
    swapped[r] = true;
    swapped[partner] = true;
    free_ranks.Clear(r);
    free_ranks.Clear(partner);
  }
  return out;
}

std::vector<double> OracleMicroaggregate(const std::vector<double>& values,
                                         int k) {
  const size_t n = values.size();
  std::vector<double> out(values);
  if (n == 0 || k <= 1) return out;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return values[a] < values[b]; });
  const size_t group = static_cast<size_t>(k);
  size_t lo = 0;
  size_t hi = n;
  auto emit = [&](size_t begin, size_t end) {
    double mean = 0.0;
    for (size_t i = begin; i < end; ++i) mean += values[order[i]];
    mean /= static_cast<double>(end - begin);
    for (size_t i = begin; i < end; ++i) out[order[i]] = mean;
  };
  while (hi - lo >= 2 * group) {
    if (hi - lo >= 3 * group) {
      emit(lo, lo + group);
      emit(hi - group, hi);
      lo += group;
      hi -= group;
    } else {
      emit(lo, lo + group);
      lo += group;
    }
  }
  if (hi > lo) emit(lo, hi);
  return out;
}

// ---------------------------------------------------------------------------
// Inputs.

enum class Kind {
  kTies,          // integers 17..90 as doubles
  kSignedZeros,   // −0.0 and +0.0 in random row order, among ±1, ±2
  kExtremes,      // negatives, subnormals, ±DBL_MIN, ±DBL_MAX
  kBeyond2To53,   // int64 values past 2^53, rounded (and tied) as doubles
  kAllEqual,
  kAscending,
  kDescending,
  kUniform,
};

struct KindName {
  Kind kind;
  const char* name;
};
constexpr KindName kKinds[] = {
    {Kind::kTies, "ties"},           {Kind::kSignedZeros, "signed_zeros"},
    {Kind::kExtremes, "extremes"},   {Kind::kBeyond2To53, "beyond_2^53"},
    {Kind::kAllEqual, "all_equal"},  {Kind::kAscending, "ascending"},
    {Kind::kDescending, "descending"}, {Kind::kUniform, "uniform"}};

double Draw(Kind kind, size_t row, size_t n, Rng& rng) {
  static constexpr double kExtremePool[] = {
      -DBL_MAX, -1e300, -12345.678, -1.0, -DBL_MIN,
      -std::numeric_limits<double>::denorm_min(), -3e-310, -0.0, 0.0,
      std::numeric_limits<double>::denorm_min(), 3e-310, 2.5e-320, DBL_MIN,
      1.0, 6.02e23, 1e300, DBL_MAX};
  static constexpr double kSmall[] = {-2.0, -1.0, 1.0, 2.0};
  switch (kind) {
    case Kind::kTies:
      return static_cast<double>(rng.NextInt(17, 90));
    case Kind::kSignedZeros:
      if (rng.NextBool(0.6)) return rng.NextBool(0.5) ? -0.0 : 0.0;
      return kSmall[rng.NextBelow(4)];
    case Kind::kExtremes:
      if (rng.NextBool(0.2)) return -rng.NextDouble() * 1e6;
      return kExtremePool[rng.NextBelow(std::size(kExtremePool))];
    case Kind::kBeyond2To53: {
      // Offsets within a few ulps of 2^53 · 2^j round onto shared doubles.
      const int64_t base = int64_t{1} << (53 + rng.NextBelow(10));
      const int64_t value = base + static_cast<int64_t>(rng.NextBelow(64));
      return static_cast<double>(rng.NextBool(0.3) ? -value : value);
    }
    case Kind::kAllEqual:
      return 42.5;
    case Kind::kAscending:
      return static_cast<double>(row) * 0.25 - 100.0;
    case Kind::kDescending:
      return static_cast<double>(n - row) * 0.25 - 100.0;
    case Kind::kUniform:
      return rng.NextDouble() * 2000.0 - 1000.0;
  }
  return 0.0;
}

std::vector<double> Column(Kind kind, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = Draw(kind, i, n, rng);
  return values;
}

// A column whose every row draws its kind at random.
std::vector<double> MixedColumn(size_t n, Rng& rng) {
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = Draw(kKinds[rng.NextBelow(std::size(kKinds))].kind, i, n, rng);
  }
  return values;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

size_t FirstBitDifference(const std::vector<double>& a,
                          const std::vector<double>& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) return i;
  }
  return std::min(a.size(), b.size());
}

void ExpectSameOrder(const std::vector<double>& values) {
  EXPECT_EQ(StableOrder(values), OracleOrder(values));
  EXPECT_EQ(RankVector(values), OracleRankVector(values));
}

void ExpectSameRankSwap(const std::vector<double>& values, double window,
                        uint64_t seed) {
  const std::vector<double> got = PerturbColumnRankSwap(values, window, seed);
  const std::vector<double> want = OracleRankSwap(values, window, seed);
  EXPECT_TRUE(SameBits(got, want))
      << "rank swap window " << window << " seed " << seed
      << ": first differing row " << FirstBitDifference(got, want);
}

void ExpectSameMicroaggregate(const std::vector<double>& values, int k) {
  const std::vector<double> got = PerturbColumnMicroaggregate(values, k);
  const std::vector<double> want = OracleMicroaggregate(values, k);
  EXPECT_TRUE(SameBits(got, want))
      << "microaggregation k " << k << ": first differing row "
      << FirstBitDifference(got, want);
}

// Every kernel on one column: rank swap over windows {1/N, 0.1, 1.0} and
// `seeds`, microaggregation over k ∈ {2, 3, 5, 7}.
void ExpectSameKernels(const std::vector<double>& values,
                       const std::vector<uint64_t>& seeds) {
  const double n = static_cast<double>(std::max<size_t>(values.size(), 1));
  for (double window : {1.0 / n, 0.1, 1.0}) {
    for (uint64_t seed : seeds) ExpectSameRankSwap(values, window, seed);
  }
  for (int k : {2, 3, 5, 7}) ExpectSameMicroaggregate(values, k);
}

constexpr size_t kSizes[] = {0, 1, 2, 3, 255, 256, 257, 65537, 100000};

// ---------------------------------------------------------------------------

TEST(RankOracleTest, OrderAndRanksMatchStableSortOnEveryKindAndSize) {
  for (const KindName& kind : kKinds) {
    for (size_t n : kSizes) {
      SCOPED_TRACE(std::string(kind.name) + " n=" + std::to_string(n));
      ExpectSameOrder(Column(kind.kind, n, 1000 + n));
    }
  }
}

TEST(RankOracleTest, PerturbationKernelsMatchStableSortOnEveryKindAndSize) {
  for (const KindName& kind : kKinds) {
    for (size_t n : kSizes) {
      SCOPED_TRACE(std::string(kind.name) + " n=" + std::to_string(n));
      // Three seeds on the small columns, one on the large ones: the large
      // sizes exercise the digit passes, the small ones the swap paths.
      const std::vector<uint64_t> seeds =
          n <= 257 ? std::vector<uint64_t>{1, 2, 3} : std::vector<uint64_t>{7};
      ExpectSameKernels(Column(kind.kind, n, 2000 + n), seeds);
    }
  }
}

TEST(RankOracleTest, RandomMixedColumnsMatchStableSort) {
  Rng rng(20261018);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = rng.NextBelow(3000);
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" + std::to_string(n));
    const std::vector<double> values = MixedColumn(n, rng);
    ExpectSameOrder(values);
    ExpectSameKernels(values, {static_cast<uint64_t>(trial) + 1,
                               static_cast<uint64_t>(trial) + 1001});
  }
}

// The cases the key transform exists for, spelled out: equal values of
// either zero sign keep their row order, and a column past 2^53 ranks by
// the rounded doubles, not by the integers it came from.
TEST(RankOracleTest, SignedZerosAndRoundedIntegersTieInRowOrder) {
  EXPECT_EQ(StableOrder(std::vector<double>{0.0, -0.0, -1.0, 0.0, -0.0}),
            (std::vector<uint32_t>{2, 0, 1, 3, 4}));
  const double big = static_cast<double>(int64_t{1} << 53);
  const std::vector<double> rounded = {
      static_cast<double>((int64_t{1} << 53) + 1), big,
      static_cast<double>((int64_t{1} << 53) - 1)};
  EXPECT_EQ(rounded[0], rounded[1]);  // 2^53 + 1 rounds to 2^53.
  EXPECT_EQ(StableOrder(rounded), (std::vector<uint32_t>{2, 0, 1}));
  EXPECT_EQ(StableOrder(std::vector<double>{DBL_MAX, -DBL_MAX, DBL_MIN,
                                            -DBL_MIN, 0.0}),
            (std::vector<uint32_t>{1, 3, 4, 2, 0}));
}

}  // namespace
}  // namespace mdc
