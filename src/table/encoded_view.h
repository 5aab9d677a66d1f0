// Dictionary-encoded column view of a dataset.
//
// An EncodedView replaces the Values of selected columns with dense
// uint32_t codes: codes(pos)[row] indexes distinct_values(pos), which holds
// the column's distinct Values in sorted order. Built once per dataset, the
// view lets lattice-node evaluation run entirely on integers — a
// generalization level becomes an O(distinct) code-translation table
// (hierarchy/level_codec.h) and applying it is an O(rows) gather, with zero
// per-row string work. The hot loops of the five lattice searches and of
// Mondrian all run on this representation.
//
// Build costs O(N + D log D) per column rather than a sort of all N cells.
// A string column orders the dictionary entries its rows use with
// StringOrder (common/radix_order.h) and remaps its codes; a numeric
// column is hash-first: one pass assigns each cell its value's first-seen
// id, then only the D distinct values are sorted and the ids remapped.

#ifndef MDC_TABLE_ENCODED_VIEW_H_
#define MDC_TABLE_ENCODED_VIEW_H_

#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "common/status.h"
#include "table/dataset.h"

namespace mdc {

class EncodedView {
 public:
  // Encodes `columns` of `dataset`. Positions below refer to indices into
  // `columns` (the same convention HierarchySet uses).
  static StatusOr<EncodedView> Build(const Dataset& dataset,
                                     const std::vector<size_t>& columns);

  size_t row_count() const { return row_count_; }
  size_t position_count() const { return columns_.size(); }
  const std::vector<size_t>& columns() const { return columns_; }

  // Distinct Values of position `pos`, sorted by Value order; the codes of
  // that position index this vector.
  const std::vector<Value>& distinct_values(size_t pos) const;

  // Row-aligned codes of position `pos`. Cache-line-aligned storage: the
  // SIMD gather kernels stream these columns (table/gather_kernels.h).
  const AlignedVector<uint32_t>& codes(size_t pos) const;

  // Bytes held by the code arrays (for RunContext memory accounting).
  uint64_t CodeBytes() const;

 private:
  size_t row_count_ = 0;
  std::vector<size_t> columns_;
  std::vector<std::vector<Value>> distinct_;
  std::vector<AlignedVector<uint32_t>> codes_;
};

}  // namespace mdc

#endif  // MDC_TABLE_ENCODED_VIEW_H_
