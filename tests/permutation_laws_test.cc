// Law-based suite for the perturbative mechanisms and the permutation
// model (docs/permutation.md). Rather than pinning outputs, each test
// asserts an algebraic law the implementation must satisfy for whole
// families of inputs:
//
//   1. identity:   an unchanged release has the identity permutation,
//                  zero footrule, zero risk, and full utility;
//   2. recovery:   a release built by applying a known permutation to
//                  distinct values yields exactly that permutation;
//   3. invariance: ranks — and therefore the whole model — are invariant
//                  under strictly monotone rescaling of either side;
//   4. windows:    rank swapping displaces no rank by more than the
//                  window, and the total displacement is monotone in the
//                  window size (fixed data, fixed seed).
//
// Plus the mechanism-level contracts: microaggregation's >= k group
// sizes and mean preservation, noise determinism per seed, and the
// budget-expiry / checkpoint-resume behavior of PerturbAnonymize and its
// refusal of non-finite input.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "anonymize/perturb/perturb.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/permutation_metrics.h"
#include "table/dataset.h"
#include "table/schema.h"

namespace mdc {
namespace {

std::vector<double> RandomColumn(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (double& v : values) v = rng.NextDouble() * 1000.0;
  return values;
}

// A dataset of `cols` real QI columns plus one string sensitive column,
// deterministic in `seed`.
std::shared_ptr<const Dataset> NumericData(size_t rows, size_t cols,
                                           uint64_t seed) {
  std::vector<AttributeDef> attributes;
  for (size_t c = 0; c < cols; ++c) {
    AttributeDef attr;
    attr.name = "c" + std::to_string(c);
    attr.type = AttributeType::kReal;
    attr.role = AttributeRole::kQuasiIdentifier;
    attributes.push_back(attr);
  }
  AttributeDef sensitive;
  sensitive.name = "s";
  sensitive.type = AttributeType::kString;
  sensitive.role = AttributeRole::kSensitive;
  attributes.push_back(sensitive);
  auto schema = Schema::Create(std::move(attributes));
  MDC_CHECK(schema.ok());
  Dataset data(*schema);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < cols; ++c) {
      row.emplace_back(rng.NextDouble() * 1000.0);
    }
    row.emplace_back(std::string("s").append(std::to_string(r % 3)));
    MDC_CHECK(data.AppendRow(std::move(row)).ok());
  }
  return std::make_shared<const Dataset>(std::move(data));
}

double Footrule(const std::vector<double>& original,
                const std::vector<double>& released) {
  std::vector<uint32_t> rx = RankVector(original);
  std::vector<uint32_t> ry = RankVector(released);
  double total = 0.0;
  for (size_t i = 0; i < rx.size(); ++i) {
    total += std::abs(static_cast<double>(ry[i]) - static_cast<double>(rx[i]));
  }
  return total;
}

// Law 1: the identity release carries zero risk and full utility.
TEST(PermutationLawsTest, IdentityReleaseHasZeroDisplacement) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    std::vector<double> values = RandomColumn(64, seed);
    auto sigma = ImplicitPermutation(values, values);
    ASSERT_TRUE(sigma.ok());
    for (size_t i = 0; i < sigma->size(); ++i) {
      EXPECT_EQ((*sigma)[i], i);
    }
    auto model = BuildPermutationModel({values}, {values}, {"c"});
    ASSERT_TRUE(model.ok());
    EXPECT_EQ(model->attributes[0].footrule, 0.0);
    for (size_t i = 0; i < model->rows; ++i) {
      EXPECT_EQ(model->privacy[i], 0.0);
      EXPECT_EQ(model->utility[i], 1.0);
    }
  }
}

// Law 2: a release built from a known permutation of distinct values
// gives back exactly that permutation.
TEST(PermutationLawsTest, KnownPermutationIsRecoveredExactly) {
  for (uint64_t seed : {3u, 11u, 99u}) {
    const size_t n = 50;
    std::vector<double> original(n);
    for (size_t i = 0; i < n; ++i) {
      original[i] = static_cast<double>(i) * 2.5 + 1.0;  // Distinct.
    }
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), uint32_t{0});
    Rng rng(seed);
    rng.Shuffle(perm);
    std::vector<double> released(n);
    for (size_t i = 0; i < n; ++i) released[i] = original[perm[i]];
    auto sigma = ImplicitPermutation(original, released);
    ASSERT_TRUE(sigma.ok());
    EXPECT_EQ(*sigma, perm);
  }
}

// Law 3: ranks see only order, so any strictly increasing rescaling of
// either column leaves the model untouched.
TEST(PermutationLawsTest, ModelInvariantUnderMonotoneRescaling) {
  std::vector<double> original = RandomColumn(80, 5);
  std::vector<double> released =
      PerturbColumnRankSwap(original, 0.2, /*seed=*/13);

  auto base = BuildPermutationModel({original}, {released}, {"c"});
  ASSERT_TRUE(base.ok());

  auto rescale = [](const std::vector<double>& values, int which) {
    std::vector<double> out(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      switch (which) {
        case 0: out[i] = 3.0 * values[i] + 7.0; break;          // Affine.
        case 1: out[i] = std::exp(values[i] / 500.0); break;    // Convex.
        default: out[i] = std::cbrt(values[i]); break;          // Concave.
      }
    }
    return out;
  };
  for (int which = 0; which < 3; ++which) {
    SCOPED_TRACE("rescaling " + std::to_string(which));
    auto scaled = BuildPermutationModel({rescale(original, which)},
                                        {rescale(released, which)}, {"c"});
    ASSERT_TRUE(scaled.ok());
    EXPECT_EQ(scaled->attributes[0].footrule, base->attributes[0].footrule);
    EXPECT_EQ(scaled->attributes[0].permutation,
              base->attributes[0].permutation);
    EXPECT_EQ(scaled->privacy, base->privacy);
    EXPECT_EQ(scaled->utility, base->utility);
  }
}

// Law 4a (hard bound): rank swapping with window fraction p displaces no
// rank by more than w = max(1, floor(p·N)).
TEST(PermutationLawsTest, RankSwapDisplacementBoundedByWindow) {
  const size_t n = 100;
  std::vector<double> values = RandomColumn(n, 21);  // Distinct w.p. 1.
  for (double window : {0.02, 0.1, 0.3, 0.7, 1.0}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    const double w = std::max<double>(
        1.0, std::floor(window * static_cast<double>(n)));
    for (uint64_t seed : {1u, 2u, 3u}) {
      std::vector<double> released = PerturbColumnRankSwap(values, window, seed);
      std::vector<uint32_t> rx = RankVector(values);
      std::vector<uint32_t> ry = RankVector(released);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_LE(std::abs(static_cast<double>(ry[i]) -
                           static_cast<double>(rx[i])),
                  w);
      }
    }
  }
}

// Law 4b (monotonicity): for fixed data and seed, widening the window
// never decreases the total rank displacement.
TEST(PermutationLawsTest, RankSwapFootruleMonotoneInWindow) {
  std::vector<double> values = RandomColumn(120, 8);
  for (uint64_t seed : {5u, 17u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    double previous = -1.0;
    for (double window : {0.05, 0.1, 0.2, 0.4, 0.8}) {
      std::vector<double> released =
          PerturbColumnRankSwap(values, window, seed);
      double footrule = Footrule(values, released);
      EXPECT_GE(footrule, previous)
          << "window=" << window << " shrank the footrule";
      previous = footrule;
    }
    EXPECT_GT(previous, 0.0);  // The widest window actually moved ranks.
  }
}

// Microaggregation contract: every released value is shared by >= k rows,
// the column mean is preserved, and k >= N collapses to one group.
TEST(PermutationLawsTest, MicroaggregationGroupLaws) {
  std::vector<double> values = RandomColumn(57, 30);  // Odd N: remainder group.
  for (int k : {2, 3, 5, 10}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    std::vector<double> released = PerturbColumnMicroaggregate(values, k);
    std::map<double, int> counts;
    for (double v : released) ++counts[v];
    for (const auto& [value, count] : counts) {
      EXPECT_GE(count, k) << "group of " << count << " rows at " << value;
    }
    double original_sum = std::accumulate(values.begin(), values.end(), 0.0);
    double released_sum =
        std::accumulate(released.begin(), released.end(), 0.0);
    EXPECT_NEAR(released_sum, original_sum, 1e-6 * std::abs(original_sum));
  }
  std::vector<double> collapsed =
      PerturbColumnMicroaggregate(values, static_cast<int>(values.size()));
  for (double v : collapsed) EXPECT_EQ(v, collapsed.front());
}

// Noise determinism: same seed, same stream; different seed, different
// release; constant columns pass through unchanged.
TEST(PermutationLawsTest, NoiseDeterministicPerSeed) {
  std::vector<double> values = RandomColumn(64, 2);
  std::vector<double> a = PerturbColumnNoise(values, 0.1, 7);
  std::vector<double> b = PerturbColumnNoise(values, 0.1, 7);
  std::vector<double> c = PerturbColumnNoise(values, 0.1, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, values);  // Noise actually perturbs.
  std::vector<double> constant(32, 4.5);
  EXPECT_EQ(PerturbColumnNoise(constant, 0.1, 7), constant);
}

// End-to-end determinism: the released table is a pure function of
// (dataset, config) — and perturbed int columns come back as kReal.
TEST(PermutationLawsTest, PerturbAnonymizeDeterministicPerConfig) {
  auto data = NumericData(40, 3, 11);
  for (const char* mechanism : {"noise", "rankswap", "microagg"}) {
    SCOPED_TRACE(mechanism);
    PerturbConfig config;
    auto parsed = ParsePerturbMechanism(mechanism);
    ASSERT_TRUE(parsed.ok());
    config.mechanism = *parsed;
    config.seed = 77;
    auto first = PerturbAnonymize(data, config);
    auto second = PerturbAnonymize(data, config);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first->anonymization.release.ToCsv(),
              second->anonymization.release.ToCsv());
    EXPECT_EQ(first->perturbed_columns, std::vector<size_t>({0, 1, 2}));

    config.seed = 78;
    auto reseeded = PerturbAnonymize(data, config);
    ASSERT_TRUE(reseeded.ok());
    if (config.mechanism != PerturbMechanism::kMicroaggregation) {
      EXPECT_NE(first->anonymization.release.ToCsv(),
                reseeded->anonymization.release.ToCsv());
    } else {
      // Microaggregation is RNG-free: the seed must not matter.
      EXPECT_EQ(first->anonymization.release.ToCsv(),
                reseeded->anonymization.release.ToCsv());
    }
  }
}

// The models of several releases of one dataset share its original
// orders (OriginalOrders): the first build ranks each original column into
// its slot, later builds read the slot instead of ranking again, and every
// model equals the one built without sharing.
TEST(PermutationLawsTest, SharedOriginalOrdersRankEachColumnOnce) {
  auto data = NumericData(300, 3, 21);
  OriginalOrders originals;
  PermutationMetricsOptions threaded;  // Each attribute fills its own slot.
  threaded.threads = 3;
  for (const char* mechanism : {"noise", "rankswap", "microagg"}) {
    SCOPED_TRACE(mechanism);
    PerturbConfig config;
    auto parsed = ParsePerturbMechanism(mechanism);
    ASSERT_TRUE(parsed.ok());
    config.mechanism = *parsed;
    auto release = PerturbAnonymize(data, config);
    ASSERT_TRUE(release.ok()) << release.status().ToString();
    auto shared = PermutationModelFor(release->anonymization, nullptr,
                                      threaded, nullptr, &originals);
    auto alone = PermutationModelFor(release->anonymization, nullptr);
    ASSERT_TRUE(shared.ok()) << shared.status().ToString();
    ASSERT_TRUE(alone.ok());
    ASSERT_EQ(shared->attributes.size(), alone->attributes.size());
    for (size_t a = 0; a < alone->attributes.size(); ++a) {
      EXPECT_EQ(shared->attributes[a].original_ranks,
                alone->attributes[a].original_ranks);
      EXPECT_EQ(shared->attributes[a].permutation,
                alone->attributes[a].permutation);
      EXPECT_EQ(shared->attributes[a].rank_distance,
                alone->attributes[a].rank_distance);
    }
    EXPECT_EQ(shared->privacy.values(), alone->privacy.values());
  }
  ASSERT_EQ(originals.row_of_rank.size(), 3u);
  for (size_t a = 0; a < 3; ++a) {
    EXPECT_EQ(originals.row_of_rank[a], StableOrder(data->Numbers(a)));
  }
  // A filled slot is read, not ranked again: a planted order comes back
  // as the model's original ranks (the identity order ranks as itself).
  std::vector<uint32_t> planted(300);
  std::iota(planted.begin(), planted.end(), 0u);
  originals.row_of_rank[1] = planted;
  auto release = PerturbAnonymize(data, PerturbConfig{});
  ASSERT_TRUE(release.ok());
  auto model = PermutationModelFor(release->anonymization, nullptr, {},
                                   nullptr, &originals);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->attributes[1].original_ranks, planted);
  EXPECT_NE(model->attributes[0].original_ranks, planted);
}

// Budget expiry returns the budget error (never a partial release), the
// checkpoint captures the sweep position, and the resumed run is
// bit-identical to an uninterrupted one.
TEST(PermutationLawsTest, BudgetExpiryCheckpointResumesBitIdentical) {
  auto data = NumericData(30, 5, 19);
  PerturbConfig config;
  config.mechanism = PerturbMechanism::kRankSwap;
  config.swap_window = 0.3;
  config.seed = 4;

  auto uninterrupted = PerturbAnonymize(data, config);
  ASSERT_TRUE(uninterrupted.ok());

  RunContext budgeted;
  budgeted.set_max_steps(70);  // Expires inside the column sweep (30/col).
  PerturbCheckpoint checkpoint;
  auto expired = PerturbAnonymize(data, config, &budgeted, &checkpoint);
  ASSERT_FALSE(expired.ok());
  ASSERT_TRUE(checkpoint.has_state());
  EXPECT_EQ(checkpoint.next_column, 2u);  // floor(70 / 30) columns admitted.

  auto bytes = checkpoint.SaveCheckpoint();
  ASSERT_TRUE(bytes.ok());
  PerturbCheckpoint reloaded;
  ASSERT_TRUE(reloaded.ResumeFrom(*bytes).ok());
  auto resumed = PerturbAnonymize(data, config, nullptr, &reloaded);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->anonymization.release.ToCsv(),
            uninterrupted->anonymization.release.ToCsv());

  // A checkpoint from a different config must be rejected, not silently
  // grafted onto the wrong run.
  PerturbConfig other = config;
  other.seed = 5;
  PerturbCheckpoint stale;
  ASSERT_TRUE(stale.ResumeFrom(*bytes).ok());
  auto mismatched = PerturbAnonymize(data, other, nullptr, &stale);
  EXPECT_FALSE(mismatched.ok());
}

// The kernels order and average finite values only: a NaN or an infinity
// in a perturbed real column is refused before any column is perturbed,
// so no release carries one (the permutation model would reject it), a
// checkpoint passed in stays empty and no run is counted.
TEST(PermutationLawsTest, NonFiniteRealColumnIsRejectedBeforeAnyWork) {
  std::vector<AttributeDef> attributes(2);
  attributes[0].name = "x";
  attributes[0].type = AttributeType::kReal;
  attributes[0].role = AttributeRole::kQuasiIdentifier;
  attributes[1].name = "y";
  attributes[1].type = AttributeType::kInt;
  attributes[1].role = AttributeRole::kQuasiIdentifier;
  auto schema = Schema::Create(attributes);
  ASSERT_TRUE(schema.ok());
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Dataset data(*schema);
    for (double x : {3.0, bad, 1.0, 2.0, 0.0, -1.0, 5.0}) {
      ASSERT_TRUE(
          data.AppendRow({Value(x), Value(static_cast<int64_t>(x > 1))}).ok());
    }
    auto shared = std::make_shared<const Dataset>(std::move(data));
    for (const char* mechanism : {"noise", "rankswap", "microagg"}) {
      SCOPED_TRACE(std::string(mechanism) + " " + std::to_string(bad));
      PerturbConfig config;
      config.mechanism = *ParsePerturbMechanism(mechanism);
      PerturbCheckpoint checkpoint;
      const uint64_t runs = metrics::Snapshot().counters["perturb.runs"];
      auto result = PerturbAnonymize(shared, config, nullptr, &checkpoint);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(result.status().message().find("column x"), std::string::npos)
          << result.status().ToString();
      EXPECT_FALSE(checkpoint.has_state());
      EXPECT_EQ(metrics::Snapshot().counters["perturb.runs"], runs);
    }
  }
}

// The cross-family bridge: a generalization release reverse-maps to class
// means of the original values, and the resulting model is exact on a
// hand-checked partition.
TEST(PermutationLawsTest, ReverseMappingUsesOriginalClassMeans) {
  auto data = NumericData(12, 1, 3);
  PerturbConfig config;
  config.mechanism = PerturbMechanism::kMicroaggregation;
  config.k = 4;
  auto result = PerturbAnonymize(data, config);
  ASSERT_TRUE(result.ok());
  // Numeric release cells pass through NumericReleaseColumn unchanged.
  auto released = NumericReleaseColumn(result->anonymization, nullptr, 0);
  ASSERT_TRUE(released.ok());
  for (size_t r = 0; r < released->size(); ++r) {
    EXPECT_EQ((*released)[r],
              result->anonymization.release.cell(r, 0).AsNumber());
  }
}

}  // namespace
}  // namespace mdc
