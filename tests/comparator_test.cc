// Tests for core/comparator.h and core/report.h.

#include "core/comparator.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "anonymize/datafly.h"
#include "anonymize/equivalence.h"
#include "anonymize/mondrian.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "core/dominance.h"
#include "core/properties.h"
#include "core/quality_index.h"
#include "core/report.h"
#include "datagen/census_generator.h"
#include "paper/paper_data.h"
#include "utility/loss_metric.h"

namespace mdc {
namespace {

PropertyVector V(std::vector<double> values) {
  return PropertyVector("v", std::move(values));
}

TEST(ComparatorTest, DominanceComparatorOutcomes) {
  auto comparator = MakeDominanceComparator();
  EXPECT_EQ(comparator->Name(), "dominance");
  EXPECT_EQ(comparator->Compare(V({2, 2}), V({1, 1})),
            ComparatorOutcome::kFirstBetter);
  EXPECT_EQ(comparator->Compare(V({1, 1}), V({2, 2})),
            ComparatorOutcome::kSecondBetter);
  EXPECT_EQ(comparator->Compare(V({1, 2}), V({2, 1})),
            ComparatorOutcome::kIncomparable);
  EXPECT_EQ(comparator->Compare(V({1, 2}), V({1, 2})),
            ComparatorOutcome::kEquivalent);
}

TEST(ComparatorTest, MinComparatorIsTheScalarPractice) {
  auto comparator = MakeMinComparator();
  // The §5.3 example where min prefers the 3-anonymous vector...
  PropertyVector three_anon =
      V({3, 3, 3, 5, 5, 5, 5, 5, 3, 3, 3, 4, 4, 4, 4});
  PropertyVector two_anon = V({2, 2, 6, 6, 6, 6, 6, 6, 3, 3, 3, 4, 4, 4, 4});
  EXPECT_EQ(comparator->Compare(three_anon, two_anon),
            ComparatorOutcome::kFirstBetter);
  // ...while spread prefers the 2-anonymous one: comparator disagreement
  // is the point of the framework.
  EXPECT_EQ(MakeSpreadComparator()->Compare(two_anon, three_anon),
            ComparatorOutcome::kFirstBetter);
}

TEST(ComparatorTest, RankComparatorWithEpsilon) {
  auto comparator = MakeRankComparator(V({10, 10}), 0.5);
  EXPECT_EQ(comparator->Compare(V({9, 9}), V({5, 5})),
            ComparatorOutcome::kFirstBetter);
  // Within epsilon: equivalent.
  EXPECT_EQ(comparator->Compare(V({9, 9}), V({9, 8.9})),
            ComparatorOutcome::kEquivalent);
}

TEST(ComparatorTest, CoverageAndHypervolume) {
  PropertyVector s = paper::ExpectedClassSizesT3a();
  PropertyVector t = paper::ExpectedClassSizesT3b();
  EXPECT_EQ(MakeCoverageComparator()->Compare(t, s),
            ComparatorOutcome::kFirstBetter);
  EXPECT_EQ(MakeHypervolumeComparator()->Compare(t, s),
            ComparatorOutcome::kFirstBetter);
}

TEST(ComparatorTest, StandardBatteryComposition) {
  EXPECT_EQ(StandardComparators().size(), 4u);  // No rank, no hv.
  EXPECT_EQ(StandardComparators(V({1, 1})).size(), 5u);
  EXPECT_EQ(StandardComparators(V({1, 1}), true).size(), 6u);
}

// Randomized large-N coverage: the original tests stop at N = 15, far
// below the blocked-kernel sizes. Every comparator outcome must agree
// with the underlying scalar index at vector lengths in the thousands,
// under both tie-heavy (small-int) and continuous values.
TEST(ComparatorTest, RandomizedLargeNAgreesWithScalarIndices) {
  Rng rng(20260807);
  for (size_t n : {1000u, 4096u, 5000u}) {
    for (int trial = 0; trial < 8; ++trial) {
      const bool tie_heavy = trial % 2 == 0;
      std::vector<double> v1(n);
      std::vector<double> v2(n);
      for (size_t i = 0; i < n; ++i) {
        if (tie_heavy) {
          v1[i] = static_cast<double>(rng.NextInt(1, 5));
          v2[i] = static_cast<double>(rng.NextInt(1, 5));
        } else {
          v1[i] = rng.NextDouble() * 50.0 + 1.0;
          v2[i] = rng.NextDouble() * 50.0 + 1.0;
        }
      }
      PropertyVector a("a", v1);
      PropertyVector b("b", v2);
      SCOPED_TRACE("n=" + std::to_string(n) + " trial=" +
                   std::to_string(trial));

      EXPECT_EQ(MakeDominanceComparator()->Compare(a, b) ==
                    ComparatorOutcome::kIncomparable,
                NonDominated(a, b));
      auto expect_matches = [&](const char* name,
                                ComparatorOutcome outcome, double first,
                                double second) {
        if (first > second) {
          EXPECT_EQ(outcome, ComparatorOutcome::kFirstBetter) << name;
        } else if (second > first) {
          EXPECT_EQ(outcome, ComparatorOutcome::kSecondBetter) << name;
        } else {
          EXPECT_EQ(outcome, ComparatorOutcome::kEquivalent) << name;
        }
      };
      expect_matches("min", MakeMinComparator()->Compare(a, b), MinIndex(a),
                     MinIndex(b));
      expect_matches("cov", MakeCoverageComparator()->Compare(a, b),
                     CoverageIndex(a, b), CoverageIndex(b, a));
      expect_matches("spr", MakeSpreadComparator()->Compare(a, b),
                     SpreadIndex(a, b), SpreadIndex(b, a));
      expect_matches("hv", MakeHypervolumeComparator()->Compare(a, b),
                     HypervolumeIndex(a, b), HypervolumeIndex(b, a));
      PropertyVector ideal("ideal", std::vector<double>(n, 60.0));
      // Rank: smaller distance to the ideal is better.
      expect_matches("rank",
                     MakeRankComparator(ideal, 0.0)->Compare(a, b),
                     -RankIndex(a, ideal), -RankIndex(b, ideal));
    }
  }
}

// Tie-heavy edge cases the original suite missed: fully tied vectors must
// come out equivalent under every comparator in the battery.
TEST(ComparatorTest, FullyTiedVectorsAreEquivalentEverywhere) {
  Rng rng(99);
  std::vector<double> values(2048);
  for (double& v : values) v = static_cast<double>(rng.NextInt(1, 9));
  PropertyVector a("a", values);
  PropertyVector b("b", values);
  PropertyVector ideal("ideal", std::vector<double>(values.size(), 10.0));
  for (const auto& comparator :
       StandardComparators(ideal, /*include_hypervolume=*/true)) {
    EXPECT_EQ(comparator->Compare(a, b), ComparatorOutcome::kEquivalent)
        << comparator->Name();
  }
}

TEST(ComparatorTest, OutcomeNames) {
  EXPECT_STREQ(ComparatorOutcomeName(ComparatorOutcome::kFirstBetter),
               "first better");
  EXPECT_STREQ(ComparatorOutcomeName(ComparatorOutcome::kIncomparable),
               "incomparable");
}

// ------------------------------------------------------------- report --

struct Fixture {
  Anonymization anonymization;
  EquivalencePartition partition;
};

Fixture Make(StatusOr<Anonymization> (*factory)()) {
  auto anon = factory();
  MDC_CHECK(anon.ok());
  EquivalencePartition partition =
      EquivalencePartition::FromAnonymization(*anon);
  return Fixture{std::move(anon).value(), std::move(partition)};
}

TEST(ReportTest, T3aVsT3bRunsAllComparators) {
  Fixture t3a = Make(&paper::MakeT3a);
  Fixture t3b = Make(&paper::MakeT3b);
  ComparisonOptions options;
  options.sensitive_column = paper::kMaritalColumn;
  auto report = CompareAnonymizations(t3a.anonymization, t3a.partition,
                                      t3b.anonymization, t3b.partition,
                                      options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->first_name, "paper-T3a");
  EXPECT_EQ(report->second_name, "paper-T3b");
  // Three properties (class size, sensitive rarity, utility).
  EXPECT_EQ(report->properties.size(), 3u);
  EXPECT_FALSE(report->verdicts.empty());
  // T3b wins privacy comparators; T3a wins utility: net score defined.
  std::string text = report->ToText();
  EXPECT_NE(text.find("equivalence-class-size"), std::string::npos);
  EXPECT_NE(text.find("net score"), std::string::npos);
}

TEST(ReportTest, PrivacyVerdictsFavorT3b) {
  Fixture t3a = Make(&paper::MakeT3a);
  Fixture t3b = Make(&paper::MakeT3b);
  ComparisonOptions options;
  options.sensitive_column = paper::kMaritalColumn;
  auto report = CompareAnonymizations(t3b.anonymization, t3b.partition,
                                      t3a.anonymization, t3a.partition,
                                      options);
  ASSERT_TRUE(report.ok());
  int t3b_size_wins = 0;
  int t3a_rarity_wins = 0;
  int privacy_net_score = 0;
  for (const ComparatorVerdict& verdict : report->verdicts) {
    if (verdict.property == "equivalence-class-size" &&
        verdict.outcome == ComparatorOutcome::kFirstBetter) {
      ++t3b_size_wins;
    }
    if (verdict.property == "sensitive-rarity" &&
        verdict.outcome == ComparatorOutcome::kSecondBetter) {
      ++t3a_rarity_wins;
    }
    if (verdict.property == "equivalence-class-size" ||
        verdict.property == "sensitive-rarity") {
      if (verdict.outcome == ComparatorOutcome::kFirstBetter) {
        ++privacy_net_score;
      }
      if (verdict.outcome == ComparatorOutcome::kSecondBetter) {
        --privacy_net_score;
      }
    }
  }
  // Dominance, cov, spr, rank all favor T3b on class sizes; min ties
  // (both k=3).
  EXPECT_GE(t3b_size_wins, 4);
  // But T3a wins sensitive rarity (its smaller classes repeat sensitive
  // values less) — the two privacy properties genuinely disagree, which
  // is the paper's multi-property motivation. Net over privacy: a wash.
  EXPECT_GE(t3a_rarity_wins, 4);
  EXPECT_EQ(privacy_net_score, 0);
}

TEST(ReportTest, SizeMismatchRejected) {
  Fixture t3a = Make(&paper::MakeT3a);
  // Build a tiny second release.
  auto schema = Schema::Create(
      {{"x", AttributeType::kInt, AttributeRole::kQuasiIdentifier}});
  ASSERT_TRUE(schema.ok());
  auto tiny = std::make_shared<Dataset>(*schema);
  ASSERT_TRUE(tiny->AppendRow({Value(int64_t{1})}).ok());
  Anonymization small{tiny, *tiny, {0}, {false}, std::nullopt, "small"};
  EquivalencePartition partition =
      EquivalencePartition::FromColumns(small.release, {0});
  auto report = CompareAnonymizations(t3a.anonymization, t3a.partition,
                                      small, partition);
  EXPECT_FALSE(report.ok());
}

// A non-finite property entry fails the report (PropertyMatrix::FromSet)
// instead of feeding NaN into the verdicts: a real QI spanning [0, inf]
// gives one class a NaN class-spread utility.
TEST(ReportTest, NonFinitePropertyRejected) {
  auto schema = Schema::Create(
      {{"x", AttributeType::kReal, AttributeRole::kQuasiIdentifier}});
  ASSERT_TRUE(schema.ok());
  auto data = std::make_shared<Dataset>(*schema);
  ASSERT_TRUE(data->AppendRow({Value(0.0)}).ok());
  ASSERT_TRUE(
      data->AppendRow({Value(std::numeric_limits<double>::infinity())}).ok());
  Anonymization release{data, *data, {0}, {false, false}, std::nullopt, "x"};
  EquivalencePartition partition =
      EquivalencePartition::FromColumns(release.release, {});
  auto report =
      CompareAnonymizations(release, partition, release, partition);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("non-finite"), std::string::npos)
      << report.status().ToString();
}

// The scalar oracle for one report: the StandardComparators battery
// (no hypervolume) over the property vectors CompareAnonymizations scores,
// rebuilt from the property functions, with the class-size property
// ranked against the fully-linked ideal. Sensitive rarity is scored iff
// `sensitive_column` is set.
struct ExpectedReport {
  std::vector<std::string> properties;
  std::vector<ComparatorVerdict> verdicts;
  int net_score = 0;
};

ExpectedReport ScalarReport(const Fixture& first, const Fixture& second,
                            std::optional<size_t> sensitive_column) {
  auto rarity = [&](const Fixture& fixture) {
    auto counts = SensitiveCountVector(fixture.anonymization,
                                       fixture.partition, sensitive_column);
    MDC_CHECK(counts.ok());
    return counts->Negated("sensitive-rarity");
  };
  auto utility = [](const Fixture& fixture) {
    auto values = fixture.anonymization.scheme.has_value()
                      ? LossMetric::PerTupleUtility(fixture.anonymization)
                      : ClassSpreadLoss::PerTupleUtility(
                            fixture.anonymization, fixture.partition);
    MDC_CHECK(values.ok());
    return std::move(values).value();
  };
  struct Property {
    std::string name;
    PropertyVector first;
    PropertyVector second;
  };
  std::vector<Property> properties = {
      {"equivalence-class-size", EquivalenceClassSizeVector(first.partition),
       EquivalenceClassSizeVector(second.partition)}};
  if (sensitive_column.has_value()) {
    properties.push_back({"sensitive-rarity", rarity(first), rarity(second)});
  }
  properties.push_back(
      {"per-tuple-utility", utility(first), utility(second)});
  const size_t n = first.anonymization.row_count();
  const PropertyVector ideal(
      "ideal", std::vector<double>(n, static_cast<double>(n)));
  ExpectedReport expected;
  for (const Property& property : properties) {
    expected.properties.push_back(property.name);
    PropertyVector d_max = property.name == "equivalence-class-size"
                               ? ideal
                               : PropertyVector();
    for (const auto& comparator :
         StandardComparators(std::move(d_max), /*include_hypervolume=*/false)) {
      ComparatorOutcome outcome =
          comparator->Compare(property.first, property.second);
      if (outcome == ComparatorOutcome::kFirstBetter) ++expected.net_score;
      if (outcome == ComparatorOutcome::kSecondBetter) --expected.net_score;
      expected.verdicts.push_back({property.name, comparator->Name(), outcome});
    }
  }
  return expected;
}

// Runs the report with `requested` as the sensitive option and checks it
// against the scalar oracle scoring `resolved`.
void ExpectReportMatchesScalar(const Fixture& first, const Fixture& second,
                               std::optional<size_t> requested,
                               std::optional<size_t> resolved) {
  SCOPED_TRACE(first.anonymization.algorithm + " vs " +
               second.anonymization.algorithm + ", " +
               std::to_string(first.anonymization.row_count()) + " rows");
  const ExpectedReport expected = ScalarReport(first, second, resolved);
  ComparisonOptions options;
  options.sensitive_column = requested;
  auto packed = CompareAnonymizations(first.anonymization, first.partition,
                                      second.anonymization, second.partition,
                                      options);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_EQ(packed->properties, expected.properties);
  EXPECT_EQ(packed->net_score, expected.net_score);
  ASSERT_EQ(packed->verdicts.size(), expected.verdicts.size());
  for (size_t i = 0; i < packed->verdicts.size(); ++i) {
    EXPECT_EQ(packed->verdicts[i].property, expected.verdicts[i].property);
    EXPECT_EQ(packed->verdicts[i].comparator, expected.verdicts[i].comparator);
    EXPECT_EQ(packed->verdicts[i].outcome, expected.verdicts[i].outcome)
        << packed->verdicts[i].property << " / "
        << packed->verdicts[i].comparator;
  }
}

// Two releases of seeded census microdata: Datafly (k = 5, 2%
// suppression) and Mondrian (k = 5).
struct CensusReleases {
  Fixture datafly;
  Fixture mondrian;
  size_t sensitive_column = 0;
};

CensusReleases MakeCensusReleases(size_t rows) {
  CensusConfig config;
  config.rows = rows;
  config.seed = 1;
  auto census = GenerateCensus(config);
  MDC_CHECK(census.ok());
  DataflyConfig datafly_config;
  datafly_config.k = 5;
  datafly_config.suppression.max_fraction = 0.02;
  auto datafly =
      DataflyAnonymize(census->data, census->hierarchies, datafly_config);
  MDC_CHECK(datafly.ok());
  auto mondrian = MondrianAnonymize(census->data, MondrianConfig{5});
  MDC_CHECK(mondrian.ok());
  return CensusReleases{
      Fixture{std::move(datafly->evaluation.anonymization),
              std::move(datafly->evaluation.partition)},
      Fixture{std::move(mondrian->anonymization),
              std::move(mondrian->partition)},
      census->sensitive_column};
}

// Differential contract at the report level: the packed report matches
// the scalar comparator battery verdict for verdict, with the same net
// score — on Table 1's releases, with and without a sensitive column, and
// on census releases whose vectors span several kernel blocks and a
// remainder (2,500 and 5,000 rows against 1024-element blocks).
TEST(ReportTest, PackedReportMatchesScalarComparators) {
  const Fixture t3a = Make(&paper::MakeT3a);
  const Fixture t3b = Make(&paper::MakeT3b);
  const Fixture t4 = Make(&paper::MakeT4);
  const std::pair<const Fixture*, const Fixture*> pairs[] = {
      {&t3a, &t3b}, {&t3b, &t3a}, {&t4, &t3b}, {&t3a, &t4}};
  for (const auto& [first, second] : pairs) {
    ExpectReportMatchesScalar(*first, *second, paper::kMaritalColumn,
                              paper::kMaritalColumn);
    // The paper schema has no kSensitive attribute: with no column asked
    // for, the report scores class size and utility only.
    ExpectReportMatchesScalar(*first, *second, std::nullopt, std::nullopt);
  }
  for (size_t rows : {2500, 5000}) {
    const CensusReleases census = MakeCensusReleases(rows);
    // The census schema's one kSensitive attribute resolves by default.
    ExpectReportMatchesScalar(census.datafly, census.mondrian, std::nullopt,
                              census.sensitive_column);
    ExpectReportMatchesScalar(census.mondrian, census.datafly, std::nullopt,
                              census.sensitive_column);
  }
}

// One report's cmp.* delta: one comparison run and one pair per property,
// N elements per pair, and the class-size property ranks both rows
// against the ideal.
TEST(ReportTest, CountsOneComparisonPerProperty) {
  const Fixture t3a = Make(&paper::MakeT3a);
  const Fixture t3b = Make(&paper::MakeT3b);
  ComparisonOptions options;
  options.sensitive_column = paper::kMaritalColumn;
  std::map<std::string, uint64_t> before = metrics::Snapshot().counters;
  auto report = CompareAnonymizations(t3a.anonymization, t3a.partition,
                                      t3b.anonymization, t3b.partition,
                                      options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::map<std::string, uint64_t> after = metrics::Snapshot().counters;
  auto delta = [&](const std::string& name) {
    return after[name] - before[name];
  };
  const uint64_t properties = report->properties.size();
  ASSERT_EQ(properties, 3u);
  EXPECT_EQ(delta("cmp.runs"), properties);
  EXPECT_EQ(delta("cmp.pairs_compared"), properties);
  EXPECT_EQ(delta("cmp.rank_rows"), 2u);
  EXPECT_EQ(delta("cmp.elements"),
            properties * t3a.anonymization.row_count());
}

// A three-property report charges one step on entry and one per property,
// all before its first comparison: four steps finish it, three stop it.
TEST(ReportTest, ThreePropertyReportNeedsFourSteps) {
  const Fixture t3a = Make(&paper::MakeT3a);
  const Fixture t3b = Make(&paper::MakeT3b);
  ComparisonOptions options;
  options.sensitive_column = paper::kMaritalColumn;
  RunContext enough;
  enough.set_max_steps(4);
  auto report = CompareAnonymizations(t3a.anonymization, t3a.partition,
                                      t3b.anonymization, t3b.partition,
                                      options, &enough);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->properties.size(), 3u);
  EXPECT_EQ(enough.steps(), 4u);

  RunContext short_budget;
  short_budget.set_max_steps(3);
  auto cut = CompareAnonymizations(t3a.anonymization, t3a.partition,
                                   t3b.anonymization, t3b.partition, options,
                                   &short_budget);
  EXPECT_EQ(cut.status().code(), StatusCode::kResourceExhausted);
}

TEST(ReportTest, BiasFieldsPopulated) {
  Fixture t3a = Make(&paper::MakeT3a);
  Fixture t3b = Make(&paper::MakeT3b);
  ComparisonOptions options;
  options.sensitive_column = paper::kMaritalColumn;
  auto report = CompareAnonymizations(t3a.anonymization, t3a.partition,
                                      t3b.anonymization, t3b.partition,
                                      options);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->first_bias.mean, 3.4);
  EXPECT_DOUBLE_EQ(report->second_bias.mean, 5.8);  // (3*3 + 7*7)/10.
}

}  // namespace
}  // namespace mdc
