// Property-based (parameterized + randomized) tests of the framework's
// invariants:
//   - dominance is a partial order; the quality indices respect it;
//   - P_cov / P_spr / P_hv relate to dominance exactly as the paper claims;
//   - algorithms keep their contracts across a parameter sweep.

#include <gtest/gtest.h>

#include <tuple>

#include "anonymize/datafly.h"
#include "anonymize/mondrian.h"
#include "common/rng.h"
#include "core/dominance.h"
#include "core/quality_index.h"
#include "datagen/census_generator.h"
#include "hierarchy/interval_hierarchy.h"
#include "privacy/k_anonymity.h"

namespace mdc {
namespace {

PropertyVector RandomVector(Rng& rng, size_t n, int lo = 1, int hi = 9) {
  std::vector<double> values(n);
  for (double& v : values) {
    v = static_cast<double>(rng.NextInt(lo, hi));
  }
  return PropertyVector("rand", std::move(values));
}

// ------------------------------------------------ randomized invariants --

class RandomVectorInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomVectorInvariants, DominancePartialOrderLaws) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = 1 + rng.NextBelow(8);
    PropertyVector a = RandomVector(rng, n);
    PropertyVector b = RandomVector(rng, n);
    PropertyVector c = RandomVector(rng, n);
    // Reflexivity / antisymmetry of weak dominance.
    EXPECT_TRUE(WeaklyDominates(a, a));
    if (WeaklyDominates(a, b) && WeaklyDominates(b, a)) {
      EXPECT_EQ(a, b);
    }
    // Transitivity.
    if (WeaklyDominates(a, b) && WeaklyDominates(b, c)) {
      EXPECT_TRUE(WeaklyDominates(a, c));
    }
    // Strong dominance is contained in weak and excludes the converse.
    if (StronglyDominates(a, b)) {
      EXPECT_TRUE(WeaklyDominates(a, b));
      EXPECT_FALSE(WeaklyDominates(b, a));
      EXPECT_FALSE(StronglyDominates(b, a));
    }
    // Exactly one of the four relations holds.
    int holds = 0;
    if (CompareDominance(a, b) == DominanceRelation::kEqual) ++holds;
    if (StronglyDominates(a, b)) ++holds;
    if (StronglyDominates(b, a)) ++holds;
    if (NonDominated(a, b)) ++holds;
    EXPECT_EQ(holds, 1);
  }
}

TEST_P(RandomVectorInvariants, IndicesAgreeWithDominance) {
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = 1 + rng.NextBelow(8);
    PropertyVector a = RandomVector(rng, n);
    PropertyVector b = RandomVector(rng, n);
    // P_spr(a,b) = 0 <=> b ⪰ a (paper §5.3).
    EXPECT_EQ(SpreadIndex(a, b) == 0.0, WeaklyDominates(b, a));
    // P_hv(a,b) = 0 => b ⪰ a (paper §5.4; vectors are positive).
    if (HypervolumeIndex(a, b) == 0.0) {
      EXPECT_TRUE(WeaklyDominates(b, a));
    }
    // P_cov(a,b) = 1 and P_cov(b,a) < 1 => a ≻ b (paper §5.2).
    if (CoverageIndex(a, b) == 1.0 && CoverageIndex(b, a) < 1.0) {
      EXPECT_TRUE(StronglyDominates(a, b));
    }
    // Coverage counts ties both ways: cov(a,b) + cov(b,a) >= 1.
    EXPECT_GE(CoverageIndex(a, b) + CoverageIndex(b, a), 1.0 - 1e-12);
    // StrictlyBetterCount is the tie-free complement.
    EXPECT_EQ(StrictlyBetterCount(a, b) + StrictlyBetterCount(b, a) +
                  [&] {
                    size_t ties = 0;
                    for (size_t i = 0; i < a.size(); ++i) {
                      if (a[i] == b[i]) ++ties;
                    }
                    return ties;
                  }(),
              n);
  }
}

TEST_P(RandomVectorInvariants, DominanceImpliesIndexOrder) {
  // Weak dominance must be respected by every standard unary index
  // (the sound direction of Theorem 1's equivalence).
  Rng rng(GetParam() + 2000);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = 1 + rng.NextBelow(6);
    PropertyVector a = RandomVector(rng, n);
    // Build b dominated by a.
    std::vector<double> smaller(a.values());
    for (double& v : smaller) {
      v -= static_cast<double>(rng.NextBelow(2));
      if (v < 1.0) v = 1.0;
    }
    PropertyVector b("b", smaller);
    if (!WeaklyDominates(a, b)) continue;
    EXPECT_GE(MinIndex(a), MinIndex(b));
    EXPECT_GE(MeanIndex(a), MeanIndex(b));
    EXPECT_GE(SumIndex(a), SumIndex(b));
    EXPECT_GE(MaxIndex(a), MaxIndex(b));
    EXPECT_GE(DominatedHypervolume(a), DominatedHypervolume(b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomVectorInvariants,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------- algorithm parameter sweep --

class AlgorithmSweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(AlgorithmSweep, DataflyContractHolds) {
  auto [k, seed] = GetParam();
  CensusConfig config;
  config.rows = 150;
  config.seed = seed;
  config.with_occupation = false;
  auto census = GenerateCensus(config);
  ASSERT_TRUE(census.ok());
  DataflyConfig datafly_config;
  datafly_config.k = k;
  datafly_config.suppression.max_fraction = 0.05;
  auto result =
      DataflyAnonymize(census->data, census->hierarchies, datafly_config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(KAnonymity(k).Satisfies(result->evaluation.anonymization,
                                      result->evaluation.partition));
  // Suppression stays within budget.
  EXPECT_LE(result->evaluation.suppressed_count,
            static_cast<size_t>(0.05 * 150));
  // Release and original have equal sizes (paper §3 convention).
  EXPECT_EQ(result->evaluation.anonymization.row_count(),
            census->data->row_count());
}

TEST_P(AlgorithmSweep, MondrianContractHolds) {
  auto [k, seed] = GetParam();
  CensusConfig config;
  config.rows = 150;
  config.seed = seed + 17;
  auto census = GenerateCensus(config);
  ASSERT_TRUE(census.ok());
  MondrianConfig mondrian_config;
  mondrian_config.k = k;
  auto result = MondrianAnonymize(census->data, mondrian_config);
  ASSERT_TRUE(result.ok());
  size_t covered = 0;
  for (const auto& members : result->partition.classes()) {
    EXPECT_GE(members.size(), static_cast<size_t>(k));
    covered += members.size();
  }
  EXPECT_EQ(covered, census->data->row_count());
}

INSTANTIATE_TEST_SUITE_P(
    KAndSeed, AlgorithmSweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values(uint64_t{11}, uint64_t{29})));

// --------------------------------------------- hierarchy nesting sweep --

class IntervalNestingSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IntervalNestingSweep, GeneratedChainsNest) {
  auto [base_width, multiplier] = GetParam();
  auto hierarchy = IntervalHierarchy::Create(
      {{0.0, static_cast<double>(base_width)},
       {0.0, static_cast<double>(base_width * multiplier)}});
  ASSERT_TRUE(hierarchy.ok());
  Rng rng(static_cast<uint64_t>(base_width * 100 + multiplier));
  std::vector<Value> values;
  for (int i = 0; i < 100; ++i) {
    values.emplace_back(rng.NextInt(-500, 500));
  }
  EXPECT_TRUE(VerifyNesting(*hierarchy, values).ok());
}

INSTANTIATE_TEST_SUITE_P(Widths, IntervalNestingSweep,
                         ::testing::Combine(::testing::Values(2, 5, 10),
                                            ::testing::Values(2, 3, 4)));

}  // namespace
}  // namespace mdc
