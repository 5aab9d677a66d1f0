// Alignment and stride contract of the packed kernel inputs: every
// PropertyMatrix row and every EncodedView code column must start a
// cache line (common/aligned.h), and the row stride must pad cols() to a
// whole line. The SIMD kernels rely on this to never split a full-width
// load across lines; these tests pin the contract so a storage change
// that silently drops the alignment fails loudly.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/aligned.h"
#include "core/property_matrix.h"
#include "table/dataset.h"
#include "table/encoded_view.h"
#include "table/schema.h"

namespace mdc {
namespace {

PropertySet MakeSet(size_t rows, size_t cols) {
  PropertySet set;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<double> values(cols);
    for (size_t c = 0; c < cols; ++c) {
      values[c] = static_cast<double>(r * cols + c) * 0.5;
    }
    set.emplace_back(std::string("p").append(std::to_string(r)),
                     std::move(values));
  }
  return set;
}

TEST(PropertyMatrixAlignment, EveryRowStartsACacheLine) {
  // Column counts straddling multiples of the 8-double line so padding
  // is actually exercised, not just the trivially aligned widths.
  for (size_t cols : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
    auto matrix = PropertyMatrix::FromSet(MakeSet(5, cols));
    ASSERT_TRUE(matrix.ok()) << cols;
    for (size_t r = 0; r < matrix->rows(); ++r) {
      EXPECT_TRUE(IsCacheAligned(matrix->row(r)))
          << "cols=" << cols << " row=" << r;
    }
  }
}

TEST(PropertyMatrixAlignment, StridePadsColsToWholeLines) {
  constexpr size_t kLineDoubles = kCacheLineBytes / sizeof(double);
  for (size_t cols : {1u, 7u, 8u, 9u, 63u, 64u, 65u}) {
    auto matrix = PropertyMatrix::FromSet(MakeSet(3, cols));
    ASSERT_TRUE(matrix.ok());
    EXPECT_GE(matrix->stride(), cols);
    EXPECT_EQ(matrix->stride() % kLineDoubles, 0u) << "cols=" << cols;
    EXPECT_LT(matrix->stride(), cols + kLineDoubles) << "cols=" << cols;
  }
}

TEST(PropertyMatrixAlignment, PaddingDoesNotLeakIntoValues) {
  auto matrix = PropertyMatrix::FromSet(MakeSet(4, 9));
  ASSERT_TRUE(matrix.ok());
  for (size_t r = 0; r < matrix->rows(); ++r) {
    for (size_t c = 0; c < matrix->cols(); ++c) {
      EXPECT_EQ(matrix->at(r, c), static_cast<double>(r * 9 + c) * 0.5);
    }
  }
  // Round-tripping through the unpacked representation sheds the padding.
  PropertySet round = matrix->ToSet();
  ASSERT_EQ(round.size(), 4u);
  for (const PropertyVector& vector : round) {
    EXPECT_EQ(vector.values().size(), 9u);
  }
}

TEST(EncodedViewAlignment, CodeColumnsAreCacheAligned) {
  auto schema = Schema::Create({
      {"zip", AttributeType::kString, AttributeRole::kQuasiIdentifier},
      {"age", AttributeType::kInt, AttributeRole::kQuasiIdentifier},
  });
  ASSERT_TRUE(schema.ok());
  Dataset dataset(*schema);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(dataset
                    .AppendRow({Value(std::string("z").append(
                                    std::to_string(i % 7))),
                                Value(static_cast<int64_t>(20 + i % 13))})
                    .ok());
  }
  auto view = EncodedView::Build(dataset, {0, 1});
  ASSERT_TRUE(view.ok());
  for (size_t pos = 0; pos < view->position_count(); ++pos) {
    EXPECT_TRUE(IsCacheAligned(view->codes(pos).data())) << "pos=" << pos;
  }
}

}  // namespace
}  // namespace mdc
