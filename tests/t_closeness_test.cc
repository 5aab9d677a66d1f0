// Tests for privacy/t_closeness.h (EMD and the model).

#include "privacy/t_closeness.h"

#include <gtest/gtest.h>

#include "anonymize/equivalence.h"
#include "anonymize/mondrian.h"
#include "paper/paper_data.h"

namespace mdc {
namespace {

TEST(EmdTest, IdenticalDistributionsAreZero) {
  std::vector<double> p = {0.2, 0.3, 0.5};
  EXPECT_DOUBLE_EQ(EarthMoversDistance(p, p, GroundDistance::kEqual), 0.0);
  EXPECT_DOUBLE_EQ(EarthMoversDistance(p, p, GroundDistance::kOrdered), 0.0);
}

TEST(EmdTest, EqualGroundIsTotalVariation) {
  std::vector<double> p = {1.0, 0.0};
  std::vector<double> q = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(EarthMoversDistance(p, q, GroundDistance::kEqual), 1.0);
  std::vector<double> r = {0.5, 0.5};
  EXPECT_DOUBLE_EQ(EarthMoversDistance(p, r, GroundDistance::kEqual), 0.5);
}

TEST(EmdTest, OrderedGroundWeighsDistance) {
  // Moving mass across the whole ordered support costs 1; to the adjacent
  // bucket costs 1/(m-1).
  std::vector<double> p = {1.0, 0.0, 0.0};
  std::vector<double> far = {0.0, 0.0, 1.0};
  std::vector<double> near = {0.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(EarthMoversDistance(p, far, GroundDistance::kOrdered),
                   1.0);
  EXPECT_DOUBLE_EQ(EarthMoversDistance(p, near, GroundDistance::kOrdered),
                   0.5);
  // Equal ground treats both moves identically.
  EXPECT_DOUBLE_EQ(EarthMoversDistance(p, far, GroundDistance::kEqual), 1.0);
  EXPECT_DOUBLE_EQ(EarthMoversDistance(p, near, GroundDistance::kEqual),
                   1.0);
}

TEST(EmdTest, SymmetricAndBounded) {
  std::vector<double> p = {0.7, 0.1, 0.2};
  std::vector<double> q = {0.2, 0.5, 0.3};
  for (GroundDistance g : {GroundDistance::kEqual, GroundDistance::kOrdered}) {
    double forward = EarthMoversDistance(p, q, g);
    double backward = EarthMoversDistance(q, p, g);
    EXPECT_DOUBLE_EQ(forward, backward);
    EXPECT_GE(forward, 0.0);
    EXPECT_LE(forward, 1.0);
  }
}

TEST(EmdTest, TriangleInequalityOrdered) {
  std::vector<double> p = {0.6, 0.2, 0.2};
  std::vector<double> q = {0.1, 0.8, 0.1};
  std::vector<double> r = {0.3, 0.3, 0.4};
  for (GroundDistance g : {GroundDistance::kEqual, GroundDistance::kOrdered}) {
    double pq = EarthMoversDistance(p, q, g);
    double qr = EarthMoversDistance(q, r, g);
    double pr = EarthMoversDistance(p, r, g);
    EXPECT_LE(pr, pq + qr + 1e-12);
  }
}

TEST(EmdTest, SingletonSupportIsZero) {
  std::vector<double> p = {1.0};
  EXPECT_DOUBLE_EQ(EarthMoversDistance(p, p, GroundDistance::kOrdered), 0.0);
}

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

TEST(TClosenessTest, PerClassEmdsComputed) {
  Fixture t3a = Make(&paper::MakeT3a);
  auto emds = EmdPerClass(t3a.anonymization, t3a.partition,
                          GroundDistance::kEqual, paper::kMaritalColumn);
  ASSERT_TRUE(emds.ok());
  EXPECT_EQ(emds->size(), 3u);
  for (double emd : *emds) {
    EXPECT_GE(emd, 0.0);
    EXPECT_LE(emd, 1.0);
  }
}

TEST(TClosenessTest, FullGeneralizationIsPerfectlyClose) {
  // One class containing everything has exactly the global distribution.
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  auto scheme = GeneralizationScheme::Create(*hierarchies, {5, 3, 2});
  ASSERT_TRUE(scheme.ok());
  auto anon = Generalizer::Apply(*data, *scheme);
  ASSERT_TRUE(anon.ok());
  EquivalencePartition partition =
      EquivalencePartition::FromAnonymization(*anon);
  TCloseness model(0.0, GroundDistance::kEqual, paper::kMaritalColumn);
  EXPECT_NEAR(model.Measure(*anon, partition), 0.0, 1e-12);
  EXPECT_TRUE(model.Satisfies(*anon, partition));
}

TEST(TClosenessTest, FinerPartitionIsFarther) {
  Fixture t3a = Make(&paper::MakeT3a);
  Fixture t3b = Make(&paper::MakeT3b);
  TCloseness model(1.0, GroundDistance::kEqual, paper::kMaritalColumn);
  double t_t3a = model.Measure(t3a.anonymization, t3a.partition);
  double t_t3b = model.Measure(t3b.anonymization, t3b.partition);
  // T3b's classes are coarser, so its worst-class distance is no larger.
  EXPECT_LE(t_t3b, t_t3a + 1e-12);
  EXPECT_GT(t_t3a, 0.0);
}

TEST(TClosenessTest, SatisfiesThreshold) {
  Fixture t3a = Make(&paper::MakeT3a);
  TCloseness strict(0.01, GroundDistance::kEqual, paper::kMaritalColumn);
  TCloseness loose(0.99, GroundDistance::kEqual, paper::kMaritalColumn);
  EXPECT_FALSE(strict.Satisfies(t3a.anonymization, t3a.partition));
  EXPECT_TRUE(loose.Satisfies(t3a.anonymization, t3a.partition));
  EXPECT_FALSE(strict.HigherIsStronger());
}

// Six rows, an age QI and a salary drawn from {9, 10, 100}: Mondrian at
// k = 3 cuts the ages 20-22 from 40-42, whose salaries are (9, 10, 9) and
// (100, 10, 100), against a global distribution of 1/3 each.
MondrianResult SalaryRelease(AttributeType salary_type,
                             const std::vector<std::string>& salaries) {
  auto schema = Schema::Create(
      {{"age", AttributeType::kInt, AttributeRole::kQuasiIdentifier},
       {"salary", salary_type, AttributeRole::kSensitive}});
  MDC_CHECK(schema.ok());
  auto data = std::make_shared<Dataset>(*schema);
  const int64_t ages[] = {20, 21, 22, 40, 41, 42};
  for (size_t i = 0; i < 6; ++i) {
    auto salary = Value::Parse(salaries[i], salary_type);
    MDC_CHECK(salary.ok());
    MDC_CHECK(data->AppendRow({Value(ages[i]), *salary}).ok());
  }
  MondrianConfig config;
  config.k = 3;
  auto result = MondrianAnonymize(data, config);
  MDC_CHECK(result.ok());
  MDC_CHECK(result->partition.class_count() == 2);
  return std::move(result).value();
}

TEST(TClosenessTest, OrderedGroundOrdersNumbersByValue) {
  // In value order each class moves 1/3 of its mass across one step of
  // two: EMD 1/3. Ordered as text ("10" < "100" < "9") it would be 1/6.
  const std::vector<std::pair<AttributeType, std::vector<std::string>>>
      columns = {
          {AttributeType::kInt, {"9", "10", "9", "100", "10", "100"}},
          {AttributeType::kReal,
           {"9.5", "10.5", "9.5", "100.5", "10.5", "100.5"}},
      };
  for (const auto& [type, salaries] : columns) {
    MondrianResult release = SalaryRelease(type, salaries);
    auto ordered = EmdPerClass(release.anonymization, release.partition,
                               GroundDistance::kOrdered, std::nullopt);
    ASSERT_TRUE(ordered.ok());
    ASSERT_EQ(ordered->size(), 2u);
    for (double emd : *ordered) EXPECT_NEAR(emd, 1.0 / 3.0, 1e-12);
    auto equal = EmdPerClass(release.anonymization, release.partition,
                             GroundDistance::kEqual, std::nullopt);
    ASSERT_TRUE(equal.ok());
    for (double emd : *equal) EXPECT_NEAR(emd, 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(TCloseness(1.0, GroundDistance::kOrdered)
                    .Measure(release.anonymization, release.partition),
                1.0 / 3.0, 1e-12);
  }
}

TEST(TClosenessTest, OrderedGroundOrdersStringsAsText) {
  // The same cells in a string column keep the text order, and with it
  // the EMD of 1/6 per class.
  MondrianResult release = SalaryRelease(
      AttributeType::kString, {"9", "10", "9", "100", "10", "100"});
  auto ordered = EmdPerClass(release.anonymization, release.partition,
                             GroundDistance::kOrdered, std::nullopt);
  ASSERT_TRUE(ordered.ok());
  ASSERT_EQ(ordered->size(), 2u);
  for (double emd : *ordered) EXPECT_NEAR(emd, 1.0 / 6.0, 1e-12);
}

TEST(TClosenessTest, NameIncludesGround) {
  EXPECT_EQ(TCloseness(0.2, GroundDistance::kOrdered).Name(),
            "t-closeness(0.2,ordered)");
}

}  // namespace
}  // namespace mdc
