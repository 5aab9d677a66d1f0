// Differential oracle for the packed comparison engine: every dominance
// relation and every §5 index computed by the blocked kernels must equal
// the scalar element-at-a-time code of core/{dominance,quality_index}
// EXACTLY (double ==, no tolerance), over randomized property sets
// covering ties, zeros, negatives, denormal-adjacent magnitudes, and
// lengths that are not multiples of the kernel block. Also proves the
// engine's determinism contract: results and cmp.* counters
// byte-identical across thread counts, including under step-budget
// truncation, plus cancellation and cmp.read fault paths.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "anonymize/perturb/perturb.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/compare_engine.h"
#include "core/permutation_metrics.h"
#include "core/dominance.h"
#include "core/property_matrix.h"
#include "core/quality_index.h"

namespace mdc {
namespace {

// Value distributions the kernels must survive. Every mode produces
// finite values only (the matrix ingestion contract).
enum class ValueMode {
  kTieHeavy,    // Small integers: many exact ties, many equal runs.
  kContinuous,  // Uniform doubles, ties essentially impossible.
  kSigned,      // Zeros and negatives mixed in.
  kDenormal,    // Denormal-adjacent magnitudes around DBL_MIN.
  kPositive,    // Strictly positive and near 1 (safe for hypervolume).
};

constexpr ValueMode kAllModes[] = {ValueMode::kTieHeavy,
                                   ValueMode::kContinuous, ValueMode::kSigned,
                                   ValueMode::kDenormal, ValueMode::kPositive};

double RandomValue(Rng& rng, ValueMode mode) {
  switch (mode) {
    case ValueMode::kTieHeavy:
      return static_cast<double>(rng.NextInt(1, 6));
    case ValueMode::kContinuous:
      return rng.NextDouble() * 200.0 - 100.0;
    case ValueMode::kSigned: {
      int64_t pick = rng.NextInt(0, 3);
      if (pick == 0) return 0.0;
      if (pick == 1) return -static_cast<double>(rng.NextInt(1, 8));
      return static_cast<double>(rng.NextInt(1, 8));
    }
    case ValueMode::kDenormal: {
      // 2.2e-308 is just above DBL_MIN; scaling by up to 2^-8 walks into
      // the denormal range.
      double base = 2.2250738585072014e-308;
      return base * rng.NextDouble() * (rng.NextBool(0.5) ? 1.0 : -1.0);
    }
    case ValueMode::kPositive:
      return 0.5 + rng.NextDouble();
  }
  return 0.0;
}

PropertyMatrix RandomMatrix(Rng& rng, size_t rows, size_t cols,
                            ValueMode mode) {
  PropertySet set;
  set.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<double> values(cols);
    for (double& v : values) v = RandomValue(rng, mode);
    // Duplicate-or-perturb an earlier row sometimes so exact equality and
    // weak dominance actually occur in the sample.
    if (r > 0 && rng.NextBool(0.25)) {
      values = set[rng.NextBelow(r)].values();
      if (rng.NextBool(0.5)) {
        values[rng.NextBelow(cols)] += mode == ValueMode::kDenormal
                                           ? 4.9406564584124654e-324
                                           : 1.0;
      }
    }
    set.emplace_back(std::string("p").append(std::to_string(r)),
                     std::move(values));
  }
  auto matrix = PropertyMatrix::FromSet(set);
  MDC_CHECK(matrix.ok());
  return std::move(matrix).value();
}

// Exact (bitwise for the doubles) equality of two all-pairs results.
void ExpectIdenticalResults(const AllPairsResult& a, const AllPairsResult& b,
                            const std::string& context) {
  ASSERT_EQ(a.rows, b.rows) << context;
  ASSERT_EQ(a.cols, b.cols) << context;
  ASSERT_EQ(a.ranks.size(), b.ranks.size()) << context;
  for (size_t i = 0; i < a.ranks.size(); ++i) {
    EXPECT_EQ(a.ranks[i], b.ranks[i]) << context << " rank row " << i;
  }
  ASSERT_EQ(a.pairs.size(), b.pairs.size()) << context;
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    const PairComparison& x = a.pairs[i];
    const PairComparison& y = b.pairs[i];
    const std::string where =
        context + " pair (" + std::to_string(x.first) + "," +
        std::to_string(x.second) + ")";
    EXPECT_EQ(x.first, y.first) << where;
    EXPECT_EQ(x.second, y.second) << where;
    EXPECT_EQ(x.relation, y.relation) << where;
    EXPECT_EQ(x.cov12, y.cov12) << where;
    EXPECT_EQ(x.cov21, y.cov21) << where;
    EXPECT_EQ(x.binary12, y.binary12) << where;
    EXPECT_EQ(x.binary21, y.binary21) << where;
    EXPECT_EQ(x.spr12, y.spr12) << where;
    EXPECT_EQ(x.spr21, y.spr21) << where;
    EXPECT_EQ(x.min1, y.min1) << where;
    EXPECT_EQ(x.min2, y.min2) << where;
    EXPECT_EQ(x.hv12, y.hv12) << where;
    EXPECT_EQ(x.hv21, y.hv21) << where;
    EXPECT_EQ(x.rank1, y.rank1) << where;
    EXPECT_EQ(x.rank2, y.rank2) << where;
  }
}

// The oracle: AllPairsCompare's result rebuilt from the scalar §5
// functions, one pair and one row at a time.
AllPairsResult ScalarAllPairs(const PropertyMatrix& matrix,
                              const AllPairsOptions& options) {
  const PropertySet rows = matrix.ToSet();
  AllPairsResult result;
  result.rows = matrix.rows();
  result.cols = matrix.cols();
  if (!options.d_max.empty()) {
    for (const PropertyVector& row : rows) {
      result.ranks.push_back(RankIndex(row, options.d_max));
    }
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = i + 1; j < rows.size(); ++j) {
      const PropertyVector& d1 = rows[i];
      const PropertyVector& d2 = rows[j];
      PairComparison pair;
      pair.first = i;
      pair.second = j;
      pair.relation = CompareDominance(d1, d2);
      pair.cov12 = CoverageIndex(d1, d2);
      pair.cov21 = CoverageIndex(d2, d1);
      pair.binary12 = StrictlyBetterCount(d1, d2);
      pair.binary21 = StrictlyBetterCount(d2, d1);
      pair.spr12 = SpreadIndex(d1, d2);
      pair.spr21 = SpreadIndex(d2, d1);
      pair.min1 = MinIndex(d1);
      pair.min2 = MinIndex(d2);
      if (options.include_hypervolume) {
        pair.hv12 = HypervolumeIndex(d1, d2);
        pair.hv21 = HypervolumeIndex(d2, d1);
      }
      if (!options.d_max.empty()) {
        pair.rank1 = result.ranks[i];
        pair.rank2 = result.ranks[j];
      }
      result.pairs.push_back(pair);
    }
  }
  return result;
}

// The tentpole proof: packed == scalar over >= 1000 randomized (r, N)
// configurations. Lengths sweep across and around the block size
// (remainder blocks), block overrides force tiny and misaligned blocks,
// and every value mode is exercised.
TEST(ComparisonOracle, PackedMatchesScalarOnRandomizedConfigs) {
  constexpr size_t kLengths[] = {1,   2,    3,    10,   63,   64,  65,
                                 100, 1000, 1023, 1024, 1025, 3000};
  constexpr size_t kBlocks[] = {0, 1, 3, 64, 1000};  // 0 = default.
  int configs = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed * 7919);
    for (ValueMode mode : kAllModes) {
      for (size_t cols : kLengths) {
        const size_t rows = 2 + rng.NextBelow(4);  // r in [2, 5].
        PropertyMatrix matrix = RandomMatrix(rng, rows, cols, mode);
        AllPairsOptions packed;
        const size_t block = kBlocks[rng.NextBelow(5)];
        if (block != 0) packed.block = block;
        if (rng.NextBool(0.5)) {
          std::vector<double> ideal(cols);
          for (double& v : ideal) v = RandomValue(rng, mode);
          packed.d_max = PropertyVector("ideal", std::move(ideal));
        }
        auto packed_result = AllPairsCompare(matrix, packed);
        ASSERT_TRUE(packed_result.ok());
        ExpectIdenticalResults(
            *packed_result, ScalarAllPairs(matrix, packed),
            "seed=" + std::to_string(seed) + " mode=" +
                std::to_string(static_cast<int>(mode)) + " cols=" +
                std::to_string(cols) + " block=" + std::to_string(block));
        ++configs;
      }
    }
  }
  // The acceptance bar: >= 1000 randomized (r, N) configurations.
  EXPECT_GE(configs, 1000);
}

// Hypervolume needs strictly positive entries and a bounded product, so
// it gets its own randomized sweep (small N, values near 1).
TEST(ComparisonOracle, PackedMatchesScalarWithHypervolume) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 104729);
    const size_t cols = 1 + rng.NextBelow(200);
    const size_t rows = 2 + rng.NextBelow(3);
    PropertyMatrix matrix =
        RandomMatrix(rng, rows, cols, ValueMode::kPositive);
    AllPairsOptions packed;
    packed.include_hypervolume = true;
    packed.block = 1 + rng.NextBelow(64);
    auto packed_result = AllPairsCompare(matrix, packed);
    ASSERT_TRUE(packed_result.ok());
    ExpectIdenticalResults(*packed_result, ScalarAllPairs(matrix, packed),
                           "hv seed=" + std::to_string(seed));
  }
}

// Raw kernels against the scalar layer, relation by relation: weak and
// strong dominance (both directions), non-dominance, and the four-valued
// CompareDominance — the five Table-4 relations.
TEST(ComparisonOracle, RawKernelsMatchScalarDominance) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 31);
    for (ValueMode mode : kAllModes) {
      for (int trial = 0; trial < 50; ++trial) {
        const size_t cols = 1 + rng.NextBelow(300);
        PropertyMatrix matrix = RandomMatrix(rng, 2, cols, mode);
        PropertyVector d1 = matrix.ToVector(0);
        PropertyVector d2 = matrix.ToVector(1);
        const double* a = matrix.row(0);
        const double* b = matrix.row(1);
        EXPECT_EQ(PackedWeaklyDominates(a, b, cols), WeaklyDominates(d1, d2));
        EXPECT_EQ(PackedWeaklyDominates(b, a, cols), WeaklyDominates(d2, d1));
        EXPECT_EQ(PackedStronglyDominates(a, b, cols),
                  StronglyDominates(d1, d2));
        EXPECT_EQ(PackedStronglyDominates(b, a, cols),
                  StronglyDominates(d2, d1));
        EXPECT_EQ(PackedNonDominated(a, b, cols), NonDominated(d1, d2));
        EXPECT_EQ(PackedCompareDominance(a, b, cols),
                  CompareDominance(d1, d2));
      }
    }
  }
}

// Set-level dominance kernels against dominance.cc's PropertySet logic.
TEST(ComparisonOracle, SetLevelKernelsMatchScalar) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 131);
    for (int trial = 0; trial < 60; ++trial) {
      const size_t rows = 1 + rng.NextBelow(4);
      const size_t cols = 1 + rng.NextBelow(40);
      PropertyMatrix m1 = RandomMatrix(rng, rows, cols, ValueMode::kTieHeavy);
      PropertyMatrix m2 = RandomMatrix(rng, rows, cols, ValueMode::kTieHeavy);
      PropertySet s1 = m1.ToSet();
      PropertySet s2 = m2.ToSet();
      EXPECT_EQ(PackedSetWeaklyDominates(s1, s2), WeaklyDominates(s1, s2));
      EXPECT_EQ(PackedSetWeaklyDominates(s2, s1), WeaklyDominates(s2, s1));
      EXPECT_EQ(PackedSetStronglyDominates(s1, s2),
                StronglyDominates(s1, s2));
      EXPECT_EQ(PackedSetStronglyDominates(s2, s1),
                StronglyDominates(s2, s1));
    }
  }
}

// Rank kernel vs PropertyVector::DistanceTo for assorted p-norms.
TEST(ComparisonOracle, RankKernelMatchesDistanceTo) {
  Rng rng(4242);
  for (double p : {1.0, 2.0, 3.0, 7.5}) {
    for (int trial = 0; trial < 50; ++trial) {
      const size_t cols = 1 + rng.NextBelow(400);
      PropertyMatrix matrix =
          RandomMatrix(rng, 2, cols, ValueMode::kContinuous);
      PropertyVector d = matrix.ToVector(0);
      PropertyVector ideal = matrix.ToVector(1);
      EXPECT_EQ(
          PackedRankIndex(matrix.row(0), matrix.row(1), cols, p),
          d.DistanceTo(ideal, p));
    }
  }
}

std::string ResultFingerprint(const AllPairsResult& result) {
  std::string out;
  for (double rank : result.ranks) out += FormatDouble(rank, 17) + ";";
  for (const PairComparison& pair : result.pairs) {
    out += std::to_string(pair.first) + "," + std::to_string(pair.second) +
           "," + std::to_string(static_cast<int>(pair.relation)) + "," +
           FormatDouble(pair.cov12, 17) + "," + FormatDouble(pair.spr12, 17) +
           "," + FormatDouble(pair.min1, 17) + "," +
           std::to_string(pair.binary12) + "\n";
  }
  return out;
}

// Determinism: identical results and identical cmp.* counter text for
// every thread count.
TEST(ComparisonOracle, ThreadCountInvariance) {
  Rng rng(271828);
  PropertyMatrix matrix = RandomMatrix(rng, 6, 2048, ValueMode::kTieHeavy);
  std::string reference_fingerprint;
  std::string reference_counters;
  for (int threads : {1, 2, 4, 0}) {
    AllPairsOptions options;
    options.threads = threads;
    options.d_max =
        PropertyVector("ideal", std::vector<double>(matrix.cols(), 10.0));
    metrics::ResetForTest();
    auto result = AllPairsCompare(matrix, options);
    ASSERT_TRUE(result.ok());
    std::string fingerprint = ResultFingerprint(*result);
    std::string counters = metrics::Snapshot().DeterministicCountersText();
    EXPECT_NE(counters.find("cmp.pairs_compared"), std::string::npos);
    if (threads == 1) {
      reference_fingerprint = fingerprint;
      reference_counters = counters;
    } else {
      EXPECT_EQ(fingerprint, reference_fingerprint) << "threads=" << threads;
      EXPECT_EQ(counters, reference_counters) << "threads=" << threads;
    }
  }
}

// Step budgets truncate at the identical pair for every thread count: the
// status and the committed counter totals match a serial run exactly.
TEST(ComparisonOracle, StepBudgetTruncationIsThreadInvariant) {
  Rng rng(9091);
  PropertyMatrix matrix = RandomMatrix(rng, 8, 256, ValueMode::kTieHeavy);
  for (uint64_t budget : {1u, 3u, 7u, 15u, 23u, 27u, 1000u}) {
    std::string reference_counters;
    StatusCode reference_code = StatusCode::kOk;
    bool first = true;
    for (int threads : {1, 2, 4, 0}) {
      AllPairsOptions options;
      options.threads = threads;
      RunContext run;
      run.set_max_steps(budget);
      metrics::ResetForTest();
      auto result = AllPairsCompare(matrix, options, &run);
      std::string counters = metrics::Snapshot().DeterministicCountersText();
      StatusCode code =
          result.ok() ? StatusCode::kOk : result.status().code();
      if (first) {
        reference_counters = counters;
        reference_code = code;
        first = false;
      } else {
        EXPECT_EQ(counters, reference_counters)
            << "budget=" << budget << " threads=" << threads;
        EXPECT_EQ(code, reference_code)
            << "budget=" << budget << " threads=" << threads;
      }
    }
    // 8 rows = 28 pairs: the small budgets must actually truncate.
    if (budget < 28) {
      EXPECT_EQ(reference_code, StatusCode::kResourceExhausted)
          << "budget=" << budget;
    }
  }
}

TEST(ComparisonOracle, CancellationSurfacesCleanly) {
  Rng rng(5150);
  PropertyMatrix matrix = RandomMatrix(rng, 4, 64, ValueMode::kTieHeavy);
  CancellationToken token;
  token.Cancel();
  RunContext run;
  run.set_cancellation(token);
  AllPairsOptions options;
  options.threads = 4;
  auto result = AllPairsCompare(matrix, options, &run);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(ComparisonOracle, InvalidInputsAreRejected) {
  Rng rng(62);
  PropertyMatrix matrix = RandomMatrix(rng, 3, 16, ValueMode::kTieHeavy);
  AllPairsOptions bad_block;
  bad_block.block = 0;
  EXPECT_EQ(AllPairsCompare(matrix, bad_block).status().code(),
            StatusCode::kInvalidArgument);
  AllPairsOptions bad_ideal;
  bad_ideal.d_max = PropertyVector("ideal", {1.0, 2.0});
  EXPECT_EQ(AllPairsCompare(matrix, bad_ideal).status().code(),
            StatusCode::kInvalidArgument);
  // Hypervolume over non-positive entries: a clean error (the kernels
  // and the scalar comparator would abort; AllPairsCompare validates
  // first).
  PropertyMatrix signed_matrix = RandomMatrix(rng, 3, 16, ValueMode::kSigned);
  AllPairsOptions hv;
  hv.include_hypervolume = true;
  EXPECT_EQ(AllPairsCompare(signed_matrix, hv).status().code(),
            StatusCode::kInvalidArgument);
  // Non-finite and misaligned inputs never reach the kernels.
  EXPECT_EQ(PropertyMatrix::FromSet({}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PropertyMatrix::FromSet({PropertyVector("a", {1.0, 2.0}),
                                     PropertyVector("b", {1.0})})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PropertyMatrix::FromSet(
                {PropertyVector("a", {1.0, std::nan("")})})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// CSV ingestion: round-trip fidelity and budget charging.
TEST(ComparisonOracle, FromCsvRoundTripAndBudget) {
  Rng rng(7171);
  PropertyMatrix matrix = RandomMatrix(rng, 4, 37, ValueMode::kContinuous);
  auto round_trip = PropertyMatrix::FromCsv(matrix.ToCsv());
  ASSERT_TRUE(round_trip.ok());
  ASSERT_EQ(round_trip->rows(), matrix.rows());
  ASSERT_EQ(round_trip->cols(), matrix.cols());
  for (size_t r = 0; r < matrix.rows(); ++r) {
    EXPECT_EQ(round_trip->name(r), matrix.name(r));
    for (size_t c = 0; c < matrix.cols(); ++c) {
      EXPECT_EQ(round_trip->at(r, c), matrix.at(r, c));
    }
  }

  // One budget step per row: a 4-row CSV fails under a 2-step budget.
  RunContext run;
  run.set_max_steps(2);
  EXPECT_EQ(PropertyMatrix::FromCsv(matrix.ToCsv(), &run).status().code(),
            StatusCode::kResourceExhausted);
}

// The cmp.read failpoint: an injected fault surfaces as a clean Status.
TEST(ComparisonOracle, FromCsvReadFault) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "library built with MDC_FAILPOINTS=OFF";
  }
  Rng rng(7171);
  PropertyMatrix matrix = RandomMatrix(rng, 4, 37, ValueMode::kContinuous);
  failpoint::ScopedFailpoint armed("cmp.read",
                                   Status::Internal("injected read fault"));
  auto injected = PropertyMatrix::FromCsv(matrix.ToCsv());
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.status().code(), StatusCode::kInternal);
}

// Permutation-derived vectors through the oracle: the Def.-1 privacy and
// utility vectors the perturbative backend emits (normalized rank
// displacements — values in [0, 1] with heavy exact ties from repeated
// displacement counts) must compare bit-identically to the scalar §5
// functions. Runs under the full MDC_SIMD_LEVEL matrix like every other
// oracle case.
TEST(ComparisonOracle, PermutationDerivedVectorsMatchScalar) {
  constexpr size_t kRows[] = {17, 64, 65, 257};
  for (size_t n : kRows) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(5000 + n);
    std::vector<double> original(n);
    for (double& v : original) v = rng.NextDouble() * 1000.0;

    // One release per mechanism family / strength: real displacement
    // distributions, not synthetic noise.
    std::vector<std::vector<double>> releases;
    releases.push_back(PerturbColumnNoise(original, 0.05, 11));
    releases.push_back(PerturbColumnNoise(original, 0.5, 12));
    releases.push_back(PerturbColumnRankSwap(original, 0.1, 13));
    releases.push_back(PerturbColumnRankSwap(original, 0.6, 14));
    releases.push_back(PerturbColumnMicroaggregate(original, 3));
    releases.push_back(PerturbColumnMicroaggregate(original, 8));

    PropertySet privacy_set;
    PropertySet utility_set;
    for (size_t m = 0; m < releases.size(); ++m) {
      auto model = BuildPermutationModel({original}, {releases[m]},
                                         {"release" + std::to_string(m)});
      ASSERT_TRUE(model.ok()) << model.status().ToString();
      privacy_set.push_back(model->privacy);
      utility_set.push_back(model->utility);
    }
    for (const PropertySet* set : {&privacy_set, &utility_set}) {
      auto matrix = PropertyMatrix::FromSet(*set);
      ASSERT_TRUE(matrix.ok());
      AllPairsOptions packed_options;
      packed_options.d_max =
          PropertyVector("ideal", std::vector<double>(n, 1.0));
      const AllPairsResult scalar = ScalarAllPairs(*matrix, packed_options);
      auto packed = AllPairsCompare(*matrix, packed_options);
      ASSERT_TRUE(packed.ok());
      ExpectIdenticalResults(scalar, *packed,
                             "permutation vectors n=" + std::to_string(n));
      // Small blocks force remainder handling on the same data.
      packed_options.block = 7;
      auto blocked = AllPairsCompare(*matrix, packed_options);
      ASSERT_TRUE(blocked.ok());
      ExpectIdenticalResults(scalar, *blocked,
                             "permutation vectors block=7 n=" +
                                 std::to_string(n));
    }
  }
}

}  // namespace
}  // namespace mdc
