// Tests for table/encoded_view.h: the hash-first dictionary build must
// equal the definition of the encoding on every column shape — `distinct`
// the column's cells sorted and made unique, and codes[row] the
// lower_bound index of the row's cell in it.

#include "table/encoded_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

namespace mdc {
namespace {

// Checks `view` against the definition, position by position.
void ExpectMatchesDefinition(const Dataset& data, const EncodedView& view) {
  ASSERT_EQ(view.row_count(), data.row_count());
  for (size_t pos = 0; pos < view.position_count(); ++pos) {
    const size_t column = view.columns()[pos];
    const std::vector<Value>& distinct = view.distinct_values(pos);
    std::vector<Value> cells;
    for (size_t row = 0; row < data.row_count(); ++row) {
      cells.push_back(data.cell(row, column));
    }
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    EXPECT_EQ(distinct, cells) << "column " << column;
    for (size_t i = 1; i < distinct.size(); ++i) {
      ASSERT_TRUE(distinct[i - 1] < distinct[i]) << "column " << column;
    }
    const AlignedVector<uint32_t>& codes = view.codes(pos);
    ASSERT_EQ(codes.size(), data.row_count());
    for (size_t row = 0; row < data.row_count(); ++row) {
      const Value& cell = data.cell(row, column);
      const auto it = std::lower_bound(distinct.begin(), distinct.end(), cell);
      ASSERT_EQ(codes[row], static_cast<uint32_t>(it - distinct.begin()))
          << "column " << column << " row " << row;
      ASSERT_EQ(distinct[codes[row]], cell);
    }
  }
}

constexpr AttributeRole kQi = AttributeRole::kQuasiIdentifier;

Schema MixedSchema() {
  auto schema = Schema::Create({{"i", AttributeType::kInt, kQi},
                                {"r", AttributeType::kReal, kQi},
                                {"s", AttributeType::kString, kQi}});
  MDC_CHECK(schema.ok());
  return *schema;
}

// `rows` rows whose int, real and string cells draw from `cardinality`
// values each (heavy duplication when cardinality << rows).
Dataset RandomDataset(size_t rows, int cardinality, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, cardinality - 1);
  Dataset data(MixedSchema());
  for (size_t r = 0; r < rows; ++r) {
    const int a = pick(rng) - cardinality / 2;
    const int b = pick(rng);
    const int c = pick(rng);
    MDC_CHECK(data.AppendRow({Value(int64_t{a} * 1000003),
                              Value(b * 0.37 - 5.0),
                              Value(std::string("v").append(
                                  std::to_string(c * 7919)))})
                  .ok());
  }
  return data;
}

TEST(EncodedViewTest, RandomColumnsWithHeavyDuplication) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (int cardinality : {2, 17, 300}) {
      Dataset data = RandomDataset(5000, cardinality, seed);
      auto view = EncodedView::Build(data, {0, 1, 2});
      ASSERT_TRUE(view.ok());
      ExpectMatchesDefinition(data, *view);
      EXPECT_LE(view->distinct_values(2).size(),
                static_cast<size_t>(cardinality));
    }
  }
}

TEST(EncodedViewTest, SingleDistinctValue) {
  Dataset data(MixedSchema());
  for (int r = 0; r < 100; ++r) {
    ASSERT_TRUE(
        data.AppendRow({Value(int64_t{7}), Value(-0.5), Value("same")}).ok());
  }
  auto view = EncodedView::Build(data, {2, 0, 1});
  ASSERT_TRUE(view.ok());
  ExpectMatchesDefinition(data, *view);
  for (size_t pos = 0; pos < 3; ++pos) {
    EXPECT_EQ(view->distinct_values(pos).size(), 1u);
  }
}

TEST(EncodedViewTest, EmptyDataset) {
  Dataset data(MixedSchema());
  auto view = EncodedView::Build(data, {0, 1, 2});
  ASSERT_TRUE(view.ok());
  ExpectMatchesDefinition(data, *view);
  EXPECT_EQ(view->row_count(), 0u);
  EXPECT_EQ(view->CodeBytes(), 0u);
  for (size_t pos = 0; pos < 3; ++pos) {
    EXPECT_TRUE(view->distinct_values(pos).empty());
  }
}

// Tens of thousands of distinct strings in shuffled order: the table
// rehashes many times and the final sort does all the ordering.
TEST(EncodedViewTest, WideStringDictionary) {
  auto schema = Schema::Create({{"s", AttributeType::kString, kQi}});
  ASSERT_TRUE(schema.ok());
  Dataset data(*schema);
  std::vector<size_t> ids(40000);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  std::shuffle(ids.begin(), ids.end(), std::mt19937_64(9));
  for (size_t id : ids) {
    ASSERT_TRUE(data.AppendRow({Value("key-" + std::to_string(id))}).ok());
    if (id % 3 == 0) {  // Some repeats among the uniques.
      ASSERT_TRUE(
          data.AppendRow({Value("key-" + std::to_string(id / 2))}).ok());
    }
  }
  auto view = EncodedView::Build(data, {0});
  ASSERT_TRUE(view.ok());
  ExpectMatchesDefinition(data, *view);
  EXPECT_EQ(view->distinct_values(0).size(), ids.size());
}

// Value == makes 0 and -0 one value: both get its one code.
TEST(EncodedViewTest, SignedZerosShareOneCode) {
  Dataset data(MixedSchema());
  for (double x : {-0.0, 1.5, 0.0, -0.0, -2.0, 0.0}) {
    ASSERT_TRUE(data.AppendRow({Value(int64_t{0}), Value(x), Value("z")}).ok());
  }
  auto view = EncodedView::Build(data, {1});
  ASSERT_TRUE(view.ok());
  ExpectMatchesDefinition(data, *view);
  EXPECT_EQ(view->distinct_values(0).size(), 3u);
  EXPECT_EQ(view->codes(0)[0], view->codes(0)[2]);
}

TEST(EncodedViewTest, RejectsOutOfRangeColumn) {
  Dataset data(MixedSchema());
  auto view = EncodedView::Build(data, {3});
  EXPECT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace mdc
