// Tests for anonymize/mondrian.h.

#include "anonymize/mondrian.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/census_generator.h"
#include "paper/paper_data.h"
#include "privacy/k_anonymity.h"
#include "utility/loss_metric.h"

namespace mdc {
namespace {

TEST(MondrianTest, AchievesKOnPaperData) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  MondrianConfig config;
  config.k = 3;
  auto result = MondrianAnonymize(*data, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->partition.MinClassSize(), 3u);
  EXPECT_TRUE(KAnonymity(3).Satisfies(result->anonymization,
                                      result->partition));
  EXPECT_FALSE(result->anonymization.scheme.has_value());
  EXPECT_EQ(result->anonymization.algorithm, "mondrian");
}

TEST(MondrianTest, StrictInvariantEveryClassAtLeastK) {
  for (int k : {2, 3, 5}) {
    CensusConfig census_config;
    census_config.rows = 250;
    census_config.seed = static_cast<uint64_t>(k) * 100 + 1;
    auto census = GenerateCensus(census_config);
    ASSERT_TRUE(census.ok());
    MondrianConfig config;
    config.k = k;
    auto result = MondrianAnonymize(census->data, config);
    ASSERT_TRUE(result.ok());
    for (const auto& members : result->partition.classes()) {
      EXPECT_GE(members.size(), static_cast<size_t>(k));
    }
  }
}

TEST(MondrianTest, PartitionsCoverAllRowsDisjointly) {
  CensusConfig census_config;
  census_config.rows = 120;
  census_config.seed = 3;
  auto census = GenerateCensus(census_config);
  ASSERT_TRUE(census.ok());
  MondrianConfig config;
  config.k = 4;
  auto result = MondrianAnonymize(census->data, config);
  ASSERT_TRUE(result.ok());
  std::vector<int> seen(census->data->row_count(), 0);
  for (const auto& members : result->partition.classes()) {
    for (size_t row : members) ++seen[row];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(MondrianTest, MedianSplitsStopAtStrictBound) {
  // 10 rows with k = 3: the median cut gives 5/5 and a 5-row partition
  // cannot be cut again (both sides would need >= 3, i.e. >= 6 rows), so
  // strict Mondrian yields exactly two classes of five.
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  MondrianConfig config;
  config.k = 3;
  auto result = MondrianAnonymize(*data, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition.class_count(), 2u);
  for (const auto& members : result->partition.classes()) {
    EXPECT_EQ(members.size(), 5u);
  }
  // With k = 2 the cuts go deeper.
  MondrianConfig finer;
  finer.k = 2;
  auto finer_result = MondrianAnonymize(*data, finer);
  ASSERT_TRUE(finer_result.ok());
  EXPECT_GT(finer_result->partition.class_count(),
            result->partition.class_count());
}

TEST(MondrianTest, LabelsAreRangesOrValues) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  MondrianConfig config;
  config.k = 5;
  auto result = MondrianAnonymize(*data, config);
  ASSERT_TRUE(result.ok());
  // Age labels look like "[lo-hi]" or a bare number.
  const std::string age = result->anonymization.release.cell(0, 1).AsString();
  EXPECT_TRUE(age.front() == '[' || std::isdigit(age.front())) << age;
}

TEST(MondrianTest, ClassSpreadLossComputable) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  MondrianConfig config;
  config.k = 2;
  auto result = MondrianAnonymize(*data, config);
  ASSERT_TRUE(result.ok());
  auto loss = ClassSpreadLoss::PerTupleLoss(result->anonymization,
                                            result->partition);
  ASSERT_TRUE(loss.ok()) << loss.status().ToString();
  EXPECT_EQ(loss->size(), 10u);
  for (size_t i = 0; i < loss->size(); ++i) {
    EXPECT_GE((*loss)[i], 0.0);
    EXPECT_LE((*loss)[i], 3.0);  // 3 QI attributes.
  }
  // LossMetric must refuse (no scheme).
  EXPECT_FALSE(LossMetric::PerTupleLoss(result->anonymization).ok());
}

// Labels that share their first eight bytes — zip ranges such as
// "[60596..60612]" and "[60596..60644]", or occupations "occupation-c" and
// "occupation-f" — key alike in the class order's StringOrder, which
// finishes such runs by comparing the labels. The classes must still come
// in label order: each class one label tuple, the tuples strictly
// ascending as vectors of std::string.
TEST(MondrianTest, ClassesInLabelOrderWhenLabelsSharePrefixes) {
  auto schema = Schema::Create(
      {{"age", AttributeType::kInt, AttributeRole::kQuasiIdentifier},
       {"zip", AttributeType::kString, AttributeRole::kQuasiIdentifier},
       {"occupation", AttributeType::kString,
        AttributeRole::kQuasiIdentifier},
       {"disease", AttributeType::kString, AttributeRole::kSensitive}});
  ASSERT_TRUE(schema.ok());
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    auto data = std::make_shared<Dataset>(*schema);
    for (int r = 0; r < 600; ++r) {
      ASSERT_TRUE(data->AppendRow({Value(int64_t{20} + rng.NextInt(0, 50)),
                                   Value(std::string("60").append(
                                       std::to_string(
                                           596 + rng.NextBelow(104)))),
                                   Value(std::string("occupation-") +
                                         static_cast<char>('a' +
                                                           rng.NextBelow(8))),
                                   Value(std::string("d").append(
                                       std::to_string(rng.NextBelow(3))))})
                      .ok());
    }
    for (int k : {2, 3, 5}) {
      MondrianConfig config;
      config.k = k;
      auto result = MondrianAnonymize(data, config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const Anonymization& anonymization = result->anonymization;
      // Some zip ranges do share their first eight bytes.
      std::vector<std::string> ranges;
      for (const std::string& label : anonymization.release.dictionary(1)) {
        if (label.front() == '[') ranges.push_back(label.substr(0, 8));
      }
      std::sort(ranges.begin(), ranges.end());
      EXPECT_NE(std::adjacent_find(ranges.begin(), ranges.end()),
                ranges.end())
          << "seed " << seed << " k " << k;
      auto labels = [&anonymization](size_t row) {
        std::vector<std::string> tuple;
        for (size_t column : anonymization.qi_columns) {
          tuple.push_back(anonymization.release.cell(row, column).AsString());
        }
        return tuple;
      };
      std::vector<std::string> previous;
      size_t rows = 0;
      for (size_t c = 0; c < result->partition.class_count(); ++c) {
        const ClassSpan members = result->partition.class_members(c);
        const std::vector<std::string> tuple = labels(members[0]);
        for (size_t row : members) ASSERT_EQ(labels(row), tuple);
        if (c > 0) {
          ASSERT_LT(previous, tuple)
              << "seed " << seed << " k " << k << " class " << c;
        }
        previous = tuple;
        rows += members.size();
      }
      EXPECT_EQ(rows, data->row_count());
    }
  }
}

TEST(MondrianTest, ErrorsOnBadInput) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  MondrianConfig config;
  config.k = 0;
  EXPECT_FALSE(MondrianAnonymize(*data, config).ok());
  config.k = 2;
  EXPECT_FALSE(MondrianAnonymize(nullptr, config).ok());
  config.k = 11;
  auto result = MondrianAnonymize(*data, config);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(MondrianTest, SmallerKGivesFinerPartitions) {
  CensusConfig census_config;
  census_config.rows = 300;
  census_config.seed = 11;
  auto census = GenerateCensus(census_config);
  ASSERT_TRUE(census.ok());
  size_t previous = 0;
  for (int k : {20, 10, 5, 2}) {
    MondrianConfig config;
    config.k = k;
    auto result = MondrianAnonymize(census->data, config);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->partition.class_count(), previous);
    previous = result->partition.class_count();
  }
}

}  // namespace
}  // namespace mdc
