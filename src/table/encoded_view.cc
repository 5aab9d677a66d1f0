#include "table/encoded_view.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace mdc {
namespace {

struct DerefHash {
  size_t operator()(const Value* value) const { return value->Hash(); }
};
struct DerefEqual {
  bool operator()(const Value* a, const Value* b) const { return *a == *b; }
};

// Dictionary-encodes one column hash-first: one pass over the rows gives
// every cell the id of its value's first occurrence, then only the D
// distinct values are sorted and the ids remapped to their sorted ranks.
// The result is the definition's — `distinct` sorted and unique,
// codes[row] the lower_bound index of the cell — at O(N + D log D)
// instead of the O(N log N) sort of every cell plus a binary search per
// row.
void EncodeColumn(const Dataset& dataset, size_t column,
                  std::vector<Value>& distinct,
                  AlignedVector<uint32_t>& codes) {
  codes.resize(dataset.row_count());
  std::vector<const Value*> firsts;  // Distinct values, first-seen order.
  std::unordered_map<const Value*, uint32_t, DerefHash, DerefEqual> ids;
  for (size_t row = 0; row < dataset.row_count(); ++row) {
    const Value& value = dataset.cell(row, column);
    const auto [it, inserted] =
        ids.try_emplace(&value, static_cast<uint32_t>(firsts.size()));
    if (inserted) firsts.push_back(&value);
    codes[row] = it->second;
  }

  std::vector<uint32_t> order(firsts.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&firsts](uint32_t a, uint32_t b) {
    return *firsts[a] < *firsts[b];
  });
  std::vector<uint32_t> rank(firsts.size());
  distinct.clear();
  distinct.reserve(firsts.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    rank[order[i]] = i;
    distinct.push_back(*firsts[order[i]]);
  }
  for (uint32_t& code : codes) code = rank[code];
}

}  // namespace

StatusOr<EncodedView> EncodedView::Build(const Dataset& dataset,
                                         const std::vector<size_t>& columns) {
  EncodedView view;
  view.row_count_ = dataset.row_count();
  view.columns_ = columns;
  view.distinct_.resize(columns.size());
  view.codes_.resize(columns.size());
  for (size_t pos = 0; pos < columns.size(); ++pos) {
    size_t column = columns[pos];
    if (column >= dataset.column_count()) {
      return Status::OutOfRange("encoded view column out of range: " +
                                std::to_string(column));
    }
    EncodeColumn(dataset, column, view.distinct_[pos], view.codes_[pos]);
  }
  return view;
}

const std::vector<Value>& EncodedView::distinct_values(size_t pos) const {
  MDC_CHECK_LT(pos, distinct_.size());
  return distinct_[pos];
}

const AlignedVector<uint32_t>& EncodedView::codes(size_t pos) const {
  MDC_CHECK_LT(pos, codes_.size());
  return codes_[pos];
}

uint64_t EncodedView::CodeBytes() const {
  uint64_t bytes = 0;
  for (const AlignedVector<uint32_t>& codes : codes_) {
    bytes += codes.size() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace mdc
