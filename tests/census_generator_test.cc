// Tests for datagen/census_generator.h.

#include "datagen/census_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "hierarchy/hierarchy.h"
#include "table/encoded_view.h"

namespace mdc {
namespace {

TEST(CensusGeneratorTest, DeterministicBySeed) {
  CensusConfig config;
  config.rows = 50;
  config.seed = 123;
  auto a = GenerateCensus(config);
  auto b = GenerateCensus(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->data->row_count(), b->data->row_count());
  for (size_t r = 0; r < a->data->row_count(); ++r) {
    for (size_t c = 0; c < a->data->column_count(); ++c) {
      EXPECT_EQ(a->data->cell(r, c), b->data->cell(r, c));
    }
  }
}

TEST(CensusGeneratorTest, SchemaShape) {
  CensusConfig config;
  config.rows = 10;
  auto census = GenerateCensus(config);
  ASSERT_TRUE(census.ok());
  const Schema& schema = census->data->schema();
  EXPECT_EQ(schema.attribute_count(), 6u);
  EXPECT_EQ(schema.QuasiIdentifierIndices().size(), 5u);
  EXPECT_EQ(schema.SensitiveIndices(),
            std::vector<size_t>{census->sensitive_column});
  EXPECT_EQ(schema.attribute(census->sensitive_column).name, "disease");
}

TEST(CensusGeneratorTest, WithoutOccupation) {
  CensusConfig config;
  config.rows = 10;
  config.with_occupation = false;
  auto census = GenerateCensus(config);
  ASSERT_TRUE(census.ok());
  EXPECT_EQ(census->data->schema().attribute_count(), 5u);
  EXPECT_EQ(census->hierarchies.size(), 4u);
}

TEST(CensusGeneratorTest, HierarchiesCoverQuasiIdentifiers) {
  CensusConfig config;
  config.rows = 100;
  auto census = GenerateCensus(config);
  ASSERT_TRUE(census.ok());
  EXPECT_TRUE(
      census->hierarchies.CoversQuasiIdentifiers(census->data->schema())
          .ok());
}

TEST(CensusGeneratorTest, EveryHierarchyNestsOverGeneratedValues) {
  CensusConfig config;
  config.rows = 200;
  config.seed = 9;
  auto census = GenerateCensus(config);
  ASSERT_TRUE(census.ok());
  for (size_t pos = 0; pos < census->hierarchies.size(); ++pos) {
    size_t column = census->hierarchies.columns()[pos];
    auto view = EncodedView::Build(*census->data, {column});
    ASSERT_TRUE(view.ok());
    EXPECT_TRUE(VerifyNesting(census->hierarchies.At(pos),
                              view->distinct_values(0))
                    .ok())
        << "column " << column;
  }
}

TEST(CensusGeneratorTest, AgesWithinBounds) {
  CensusConfig config;
  config.rows = 500;
  auto census = GenerateCensus(config);
  ASSERT_TRUE(census.ok());
  for (size_t r = 0; r < census->data->row_count(); ++r) {
    int64_t age = census->data->cell(r, 0).AsInt();
    EXPECT_GE(age, 17);
    EXPECT_LE(age, 90);
  }
}

TEST(CensusGeneratorTest, SkewShiftsSensitiveDistribution) {
  CensusConfig uniform;
  uniform.rows = 2000;
  uniform.sensitive_skew = 0.0;
  uniform.seed = 4;
  CensusConfig skewed = uniform;
  skewed.sensitive_skew = 0.7;

  auto count_top = [](const CensusData& census) {
    std::map<std::string, size_t> counts;
    for (size_t r = 0; r < census.data->row_count(); ++r) {
      ++counts[census.data->cell(r, census.sensitive_column).AsString()];
    }
    size_t top = 0;
    for (const auto& [value, count] : counts) top = std::max(top, count);
    return top;
  };
  auto a = GenerateCensus(uniform);
  auto b = GenerateCensus(skewed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(count_top(*b), count_top(*a));
}

TEST(CensusGeneratorTest, ZipRegionsRespected) {
  CensusConfig config;
  config.rows = 300;
  config.zip_regions = 2;
  auto census = GenerateCensus(config);
  ASSERT_TRUE(census.ok());
  std::set<std::string> prefixes;
  for (size_t r = 0; r < census->data->row_count(); ++r) {
    prefixes.insert(census->data->cell(r, 1).AsString().substr(0, 2));
  }
  EXPECT_LE(prefixes.size(), 2u);
}

TEST(CensusGeneratorTest, ConfigValidation) {
  CensusConfig config;
  config.rows = 0;
  EXPECT_FALSE(GenerateCensus(config).ok());
  config.rows = 10;
  config.zip_regions = 1;
  EXPECT_FALSE(GenerateCensus(config).ok());
  config.zip_regions = 4;
  config.sensitive_skew = 1.0;
  EXPECT_FALSE(GenerateCensus(config).ok());
}

}  // namespace
}  // namespace mdc
