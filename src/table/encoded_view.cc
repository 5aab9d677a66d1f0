#include "table/encoded_view.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/radix_order.h"

namespace mdc {
namespace {

// A string column's codes already name distinct strings: order the
// dictionary entries some row uses (StringOrder, linear in D but for runs
// of shared 8-byte prefixes) and remap the codes to their ranks (N).
// Entries no row uses get no code.
void EncodeStrings(const Dataset& dataset, size_t column,
                   std::vector<Value>& distinct,
                   AlignedVector<uint32_t>& codes) {
  const std::vector<std::string>& dictionary = dataset.dictionary(column);
  const std::span<const uint32_t> cells = dataset.codes(column);
  std::vector<uint32_t> rank(dictionary.size(), 0);
  for (uint32_t code : cells) rank[code] = 1;
  std::vector<uint32_t> present;
  std::vector<std::string_view> entries;
  for (uint32_t code = 0; code < rank.size(); ++code) {
    if (rank[code] == 0) continue;
    present.push_back(code);
    entries.push_back(dictionary[code]);
  }
  const std::vector<uint32_t> order = StringOrder(entries);
  distinct.clear();
  distinct.reserve(present.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    rank[present[order[i]]] = i;
    distinct.emplace_back(dictionary[present[order[i]]]);
  }
  codes.resize(cells.size());
  for (size_t row = 0; row < cells.size(); ++row) {
    codes[row] = rank[cells[row]];
  }
}

// Dictionary-encodes a numeric column hash-first: one pass over the rows
// gives every cell the id of its value's first occurrence, then only the
// D distinct values are sorted and the ids remapped to their sorted ranks.
// The result is the definition's — `distinct` sorted and unique, codes[row]
// the lower_bound index of the cell — at O(N + D log D) instead of the
// O(N log N) sort of every cell plus a binary search per row. Keys compare
// with ==, as Values do, so 0.0 and -0.0 share one code and the value seen
// first represents it.
template <typename T>
void EncodeNumbers(std::span<const T> cells, std::vector<Value>& distinct,
                   AlignedVector<uint32_t>& codes) {
  codes.resize(cells.size());
  std::vector<T> firsts;  // Distinct values, first-seen order.
  std::unordered_map<T, uint32_t> ids;
  for (size_t row = 0; row < cells.size(); ++row) {
    const auto [it, inserted] =
        ids.try_emplace(cells[row], static_cast<uint32_t>(firsts.size()));
    if (inserted) firsts.push_back(cells[row]);
    codes[row] = it->second;
  }

  std::vector<uint32_t> order(firsts.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&firsts](uint32_t a, uint32_t b) {
    return firsts[a] < firsts[b];
  });
  std::vector<uint32_t> rank(firsts.size());
  distinct.clear();
  distinct.reserve(firsts.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    rank[order[i]] = i;
    distinct.emplace_back(firsts[order[i]]);
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
    switch (dataset.schema().attribute(column).type) {
      case AttributeType::kInt:
        EncodeNumbers(dataset.ints(column), view.distinct_[pos],
                      view.codes_[pos]);
        break;
      case AttributeType::kReal:
        EncodeNumbers(dataset.reals(column), view.distinct_[pos],
                      view.codes_[pos]);
        break;
      case AttributeType::kString:
        EncodeStrings(dataset, column, view.distinct_[pos], view.codes_[pos]);
        break;
    }
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
