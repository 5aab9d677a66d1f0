// Tests for utility/: LossMetric, ClassSpreadLoss, Discernibility,
// AvgClassSize, Precision, EntropyLoss.

#include <gtest/gtest.h>

#include <algorithm>

#include "anonymize/equivalence.h"
#include "hierarchy/interval_hierarchy.h"
#include "hierarchy/taxonomy_hierarchy.h"
#include "paper/paper_data.h"
#include "utility/avg_class_size.h"
#include "utility/discernibility.h"
#include "utility/entropy_loss.h"
#include "utility/loss_metric.h"
#include "utility/precision.h"

namespace mdc {
namespace {

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

// ------------------------------------------------------------ LossMetric --

// Row `row`'s LM charge for QI column `column` alone: PerTupleLoss of the
// release with that column as its only QI.
double CellLoss(const Anonymization& anonymization, size_t column,
                size_t row) {
  Anonymization one = anonymization;
  one.qi_columns = {column};
  auto loss = LossMetric::PerTupleLoss(one);
  MDC_CHECK(loss.ok());
  return (*loss)[row];
}

TEST(LossMetricTest, LabelLossPresentValueSemantics) {
  Fixture t3a = Make(&paper::MakeT3a);
  // Row 1 is (13053, 28, CF-Spouse), released as ("1305*", "(25,35]",
  // "Married").
  ASSERT_EQ(t3a.anonymization.release.cell(0, 0).AsString(), "1305*");
  ASSERT_EQ(t3a.anonymization.release.cell(0, 1).AsString(), "(25,35]");
  ASSERT_EQ(t3a.anonymization.release.cell(0, 2).AsString(), "Married");
  // "1305*" covers present zips {13052, 13053}: (2-1)/(6-1) = 0.2.
  EXPECT_NEAR(CellLoss(t3a.anonymization, 0, 0), 0.2, 1e-12);
  // "(25,35]" covers present ages {26, 28, 31}: (3-1)/(10-1).
  EXPECT_NEAR(CellLoss(t3a.anonymization, 1, 0), 2.0 / 9.0, 1e-12);
  // "Married" covers 2 of 6 present marital values: 0.2.
  EXPECT_NEAR(CellLoss(t3a.anonymization, 2, 0), 0.2, 1e-12);
  // "*" covers everything: loss 1.
  ASSERT_TRUE(Generalizer::SuppressRows(t3a.anonymization, {0}).ok());
  ASSERT_EQ(t3a.anonymization.release.cell(0, 2).AsString(), "*");
  EXPECT_NEAR(CellLoss(t3a.anonymization, 2, 0), 1.0, 1e-12);
}

// Declared change: a real column of i × 0.1 for i = 1..6 under one
// 0.2-wide interval level. Each label covers two present values, so every
// row is charged (2-1)/(6-1); the former interval rule re-parsed the
// printed "(0.4,0.6]" and missed 6 × 0.1 = 0.6000000000000001, charging
// the rows of 0.5 and 0.6000000000000001 0.
TEST(LossMetricTest, RoundedIntervalLabelChargedByItsChain) {
  auto schema = Schema::Create(
      {{"x", AttributeType::kReal, AttributeRole::kQuasiIdentifier}});
  ASSERT_TRUE(schema.ok());
  auto data = std::make_shared<Dataset>(std::move(schema).value());
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(data->AppendRow({Value(i * 0.1)}).ok());
  }
  auto interval = IntervalHierarchy::Create({{0.0, 0.2}});
  ASSERT_TRUE(interval.ok());
  HierarchySet hierarchies;
  ASSERT_TRUE(hierarchies
                  .Bind(0, std::make_shared<const IntervalHierarchy>(
                               std::move(interval).value()))
                  .ok());
  auto scheme = GeneralizationScheme::Create(std::move(hierarchies), {1});
  ASSERT_TRUE(scheme.ok());
  auto release = Generalizer::Apply(data, *scheme);
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  ASSERT_EQ(release->release.cell(5, 0).AsString(), "(0.4,0.6]");
  auto loss = LossMetric::PerTupleLoss(*release);
  ASSERT_TRUE(loss.ok()) << loss.status().ToString();
  for (size_t row = 0; row < 6; ++row) {
    EXPECT_EQ((*loss)[row], 1.0 / 5.0) << "row " << row;
  }
}

// A suppressed cell covers every present value even when the taxonomy's
// root is not "*": suppression always writes kSuppressedLabel, which such
// a tree does not hold, and both metrics used to fail on it.
TEST(LossMetricTest, SuppressedCellUnderANonStarRoot) {
  TaxonomyHierarchy::Builder builder("ANY");
  builder.Add("A", "ANY").Add("B", "ANY");
  builder.Add("a1", "A").Add("a2", "A").Add("b1", "B").Add("b2", "B");
  auto tree = builder.Build();
  ASSERT_TRUE(tree.ok());
  auto schema = Schema::Create(
      {{"t", AttributeType::kString, AttributeRole::kQuasiIdentifier}});
  ASSERT_TRUE(schema.ok());
  auto data = std::make_shared<Dataset>(std::move(schema).value());
  for (const char* leaf : {"a1", "a1", "a2", "b1", "b2", "b2"}) {
    ASSERT_TRUE(data->AppendRow({Value(leaf)}).ok());
  }
  HierarchySet hierarchies;
  ASSERT_TRUE(hierarchies
                  .Bind(0, std::make_shared<const TaxonomyHierarchy>(
                               std::move(tree).value()))
                  .ok());
  auto scheme = GeneralizationScheme::Create(std::move(hierarchies), {0});
  ASSERT_TRUE(scheme.ok());
  auto release = Generalizer::Apply(data, *scheme);
  ASSERT_TRUE(release.ok());
  ASSERT_TRUE(Generalizer::SuppressRows(*release, {3}).ok());
  ASSERT_EQ(release->release.cell(3, 0).AsString(), kSuppressedLabel);

  const std::vector<double> expected = {0, 0, 0, 1, 0, 0};
  auto lm = LossMetric::PerTupleLoss(*release);
  ASSERT_TRUE(lm.ok()) << lm.status().ToString();
  EXPECT_EQ(lm->values(), expected);
  auto entropy = EntropyLoss::PerTupleLoss(*release);
  ASSERT_TRUE(entropy.ok()) << entropy.status().ToString();
  EXPECT_EQ(entropy->values(), expected);
}

TEST(LossMetricTest, PaperStructureRows148EqualAcrossT3aT3b) {
  // The §5.5 example: rows 1, 4, 8 have IDENTICAL utility in T3a and T3b;
  // every other row is strictly better in T3a. Hence P_cov(u_a, u_b) = 1
  // and P_cov(u_b, u_a) = 0.3 as the paper reports.
  Fixture t3a = Make(&paper::MakeT3a);
  Fixture t3b = Make(&paper::MakeT3b);
  auto u_a = LossMetric::PerTupleUtility(t3a.anonymization);
  auto u_b = LossMetric::PerTupleUtility(t3b.anonymization);
  ASSERT_TRUE(u_a.ok());
  ASSERT_TRUE(u_b.ok());
  for (size_t i : {0u, 3u, 7u}) {
    EXPECT_NEAR((*u_a)[i], (*u_b)[i], 1e-12) << "row " << i + 1;
  }
  for (size_t i : {1u, 2u, 4u, 5u, 6u, 8u, 9u}) {
    EXPECT_GT((*u_a)[i], (*u_b)[i]) << "row " << i + 1;
  }
}

TEST(LossMetricTest, UtilityPlusLossIsQiCount) {
  Fixture t3a = Make(&paper::MakeT3a);
  auto loss = LossMetric::PerTupleLoss(t3a.anonymization);
  auto utility = LossMetric::PerTupleUtility(t3a.anonymization);
  ASSERT_TRUE(loss.ok());
  ASSERT_TRUE(utility.ok());
  for (size_t i = 0; i < loss->size(); ++i) {
    EXPECT_NEAR((*loss)[i] + (*utility)[i], 3.0, 1e-12);
  }
}

TEST(LossMetricTest, MoreGeneralizationMoreLoss) {
  Fixture t3a = Make(&paper::MakeT3a);
  Fixture t3b = Make(&paper::MakeT3b);
  Fixture t4 = Make(&paper::MakeT4);
  auto loss_a = LossMetric::TotalLoss(t3a.anonymization);
  auto loss_b = LossMetric::TotalLoss(t3b.anonymization);
  auto loss_4 = LossMetric::TotalLoss(t4.anonymization);
  ASSERT_TRUE(loss_a.ok());
  ASSERT_TRUE(loss_b.ok());
  ASSERT_TRUE(loss_4.ok());
  EXPECT_LT(*loss_a, *loss_b);  // T3a is less generalized than T3b.
  EXPECT_LT(*loss_b, *loss_4);  // T4 suppresses marital entirely.
}

TEST(LossMetricTest, SuppressedRowChargedFully) {
  Fixture t3a = Make(&paper::MakeT3a);
  ASSERT_TRUE(Generalizer::SuppressRows(t3a.anonymization, {2}).ok());
  auto loss = LossMetric::PerTupleLoss(t3a.anonymization);
  ASSERT_TRUE(loss.ok());
  EXPECT_NEAR((*loss)[2], 3.0, 1e-12);
}

// ------------------------------------------------------- ClassSpreadLoss --

TEST(ClassSpreadLossTest, AgreesWithIntuitionOnT3a) {
  Fixture t3a = Make(&paper::MakeT3a);
  auto loss = ClassSpreadLoss::PerTupleLoss(t3a.anonymization,
                                            t3a.partition);
  ASSERT_TRUE(loss.ok());
  // Class {1,4,8}: zips {13052,13053} -> 1/5; ages 26..31 -> 5/29;
  // marital {CF-Spouse, Spouse Present} -> 1/5.
  double expected = 0.2 + 5.0 / 29.0 + 0.2;
  EXPECT_NEAR((*loss)[0], expected, 1e-9);
  EXPECT_NEAR((*loss)[3], expected, 1e-9);
  EXPECT_NEAR((*loss)[7], expected, 1e-9);
}

TEST(ClassSpreadLossTest, UtilityComplement) {
  Fixture t3b = Make(&paper::MakeT3b);
  auto loss =
      ClassSpreadLoss::PerTupleLoss(t3b.anonymization, t3b.partition);
  auto utility =
      ClassSpreadLoss::PerTupleUtility(t3b.anonymization, t3b.partition);
  ASSERT_TRUE(loss.ok());
  ASSERT_TRUE(utility.ok());
  for (size_t i = 0; i < loss->size(); ++i) {
    EXPECT_NEAR((*loss)[i] + (*utility)[i], 3.0, 1e-12);
  }
}

// --------------------------------------------------------- Discernibility --

TEST(DiscernibilityTest, PenaltiesAreClassSizes) {
  Fixture t3a = Make(&paper::MakeT3a);
  PropertyVector penalty =
      Discernibility::PerTuplePenalty(t3a.anonymization, t3a.partition);
  EXPECT_EQ(penalty.values(), paper::ExpectedClassSizesT3a().values());
  // DM total = 3*3 + 3*3 + 4*4 = 34.
  EXPECT_DOUBLE_EQ(
      Discernibility::Total(t3a.anonymization, t3a.partition), 34.0);
}

TEST(DiscernibilityTest, SuppressedChargedN) {
  Fixture t3a = Make(&paper::MakeT3a);
  ASSERT_TRUE(Generalizer::SuppressRows(t3a.anonymization, {0}).ok());
  EquivalencePartition partition =
      EquivalencePartition::FromAnonymization(t3a.anonymization);
  PropertyVector penalty =
      Discernibility::PerTuplePenalty(t3a.anonymization, partition);
  EXPECT_DOUBLE_EQ(penalty[0], 10.0);
}

TEST(DiscernibilityTest, UtilityIsNegated) {
  Fixture t3a = Make(&paper::MakeT3a);
  PropertyVector utility =
      Discernibility::PerTupleUtility(t3a.anonymization, t3a.partition);
  EXPECT_DOUBLE_EQ(utility[0], -3.0);
}

// ----------------------------------------------------------- AvgClassSize --

TEST(AvgClassSizeTest, PaperPSAvg) {
  Fixture t3a = Make(&paper::MakeT3a);
  // P_s-avg = (3*3 + 3*3 + 4*4)/10 = 3.4 (§3 of the paper).
  EXPECT_DOUBLE_EQ(AvgClassSize::PerTupleAverage(t3a.partition), 3.4);
}

TEST(AvgClassSizeTest, Normalized) {
  Fixture t3a = Make(&paper::MakeT3a);
  auto c_avg = AvgClassSize::Normalized(t3a.partition, 3);
  ASSERT_TRUE(c_avg.ok());
  // N=10, 3 classes, k=3: (10/3)/3.
  EXPECT_NEAR(*c_avg, 10.0 / 9.0, 1e-12);
  EXPECT_FALSE(AvgClassSize::Normalized(t3a.partition, 0).ok());
}

// -------------------------------------------------------------- Precision --

TEST(PrecisionTest, LevelsOverHeights) {
  Fixture t3a = Make(&paper::MakeT3a);
  auto precision = Precision::PerTuplePrecision(t3a.anonymization);
  ASSERT_TRUE(precision.ok());
  // Charges: zip 1/5, age 1/3, marital 1/2 -> Prec = 1 - (avg).
  double expected = 1.0 - (1.0 / 5 + 1.0 / 3 + 1.0 / 2) / 3.0;
  for (size_t i = 0; i < precision->size(); ++i) {
    EXPECT_NEAR((*precision)[i], expected, 1e-12);
  }
  auto overall = Precision::Overall(t3a.anonymization);
  ASSERT_TRUE(overall.ok());
  EXPECT_NEAR(*overall, expected, 1e-12);
}

TEST(PrecisionTest, SuppressedRowHasZeroPrecision) {
  Fixture t3a = Make(&paper::MakeT3a);
  ASSERT_TRUE(Generalizer::SuppressRows(t3a.anonymization, {4}).ok());
  auto precision = Precision::PerTuplePrecision(t3a.anonymization);
  ASSERT_TRUE(precision.ok());
  EXPECT_NEAR((*precision)[4], 0.0, 1e-12);
}

TEST(PrecisionTest, T4LowerThanT3a) {
  Fixture t3a = Make(&paper::MakeT3a);
  Fixture t4 = Make(&paper::MakeT4);
  auto p3a = Precision::Overall(t3a.anonymization);
  auto p4 = Precision::Overall(t4.anonymization);
  ASSERT_TRUE(p3a.ok());
  ASSERT_TRUE(p4.ok());
  EXPECT_GT(*p3a, *p4);
}

// ------------------------------------------------------------ EntropyLoss --

TEST(EntropyLossTest, BoundsAndOrdering) {
  Fixture t3a = Make(&paper::MakeT3a);
  Fixture t3b = Make(&paper::MakeT3b);
  auto loss_a = EntropyLoss::PerTupleLoss(t3a.anonymization);
  auto loss_b = EntropyLoss::PerTupleLoss(t3b.anonymization);
  ASSERT_TRUE(loss_a.ok());
  ASSERT_TRUE(loss_b.ok());
  for (size_t i = 0; i < loss_a->size(); ++i) {
    EXPECT_GE((*loss_a)[i], 0.0);
    EXPECT_LE((*loss_a)[i], 1.0);
    EXPECT_LE((*loss_a)[i], (*loss_b)[i] + 1e-12);  // T3a is finer.
  }
}

TEST(EntropyLossTest, IdentityReleaseHasZeroLoss) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  auto scheme = GeneralizationScheme::Create(*hierarchies, {0, 0, 0});
  ASSERT_TRUE(scheme.ok());
  auto anon = Generalizer::Apply(*data, *scheme);
  ASSERT_TRUE(anon.ok());
  auto loss = EntropyLoss::TotalLoss(*anon);
  ASSERT_TRUE(loss.ok());
  EXPECT_NEAR(*loss, 0.0, 1e-12);
}

TEST(EntropyLossTest, UtilityComplement) {
  Fixture t4 = Make(&paper::MakeT4);
  auto loss = EntropyLoss::PerTupleLoss(t4.anonymization);
  auto utility = EntropyLoss::PerTupleUtility(t4.anonymization);
  ASSERT_TRUE(loss.ok());
  ASSERT_TRUE(utility.ok());
  for (size_t i = 0; i < loss->size(); ++i) {
    EXPECT_NEAR((*loss)[i] + (*utility)[i], 1.0, 1e-12);
  }
}

}  // namespace
}  // namespace mdc
