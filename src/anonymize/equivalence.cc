#include "anonymize/equivalence.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "common/metrics.h"
#include "table/encoded_view.h"

namespace mdc {
namespace {

// Reused per-thread scratch for FromCodeColumns. A lattice search calls
// the grouping once or twice per node from a fixed set of pool threads,
// so the hash table and per-row arrays are allocated once per thread and
// then recycled; generation tags make table "clearing" free.
struct GroupScratch {
  std::vector<uint64_t> keys;         // packed key per row
  std::vector<uint32_t> slot_of_row;  // first-seen slot per row
  // Open-addressing table: key/slot valid iff gen matches the current
  // generation. Linear probing; capacity is a power of two ≥ 2·rows.
  std::vector<uint64_t> table_key;
  std::vector<uint32_t> table_slot;
  std::vector<uint32_t> table_gen;
  uint32_t gen = 0;
  std::vector<uint32_t> counts;      // rows per slot
  std::vector<uint64_t> slot_keys;   // key of each slot, first-seen order
};

// Avalanching multiply-xorshift so consecutive packed keys don't cluster
// in the linear-probe table. Collisions are only a speed concern: slot
// identity is decided by full-key comparison.
uint64_t MixKey(uint64_t key) {
  key *= 0x9e3779b97f4a7c15ull;
  key ^= key >> 32;
  return key;
}

// Groups rows by the packed key per row in `scratch.keys`, leaving the
// per-slot counts, per-row slots, and first-seen slot keys in `scratch`.
void GroupByKeys(size_t row_count, GroupScratch& scratch) {
  size_t capacity = 16;
  while (capacity < row_count * 2) capacity <<= 1;
  if (scratch.table_key.size() != capacity) {
    scratch.table_key.assign(capacity, 0);
    scratch.table_slot.assign(capacity, 0);
    scratch.table_gen.assign(capacity, 0);
    scratch.gen = 0;
  }
  if (++scratch.gen == 0) {
    // Generation counter wrapped: stale tags could alias. Reset once per
    // 2^32 builds.
    std::fill(scratch.table_gen.begin(), scratch.table_gen.end(), 0u);
    scratch.gen = 1;
  }
  scratch.slot_of_row.resize(row_count);
  scratch.counts.clear();
  scratch.slot_keys.clear();
  const uint64_t mask = capacity - 1;
  for (size_t row = 0; row < row_count; ++row) {
    const uint64_t key = scratch.keys[row];
    uint64_t h = MixKey(key) & mask;
    uint32_t slot;
    for (;;) {
      if (scratch.table_gen[h] != scratch.gen) {
        scratch.table_gen[h] = scratch.gen;
        scratch.table_key[h] = key;
        slot = static_cast<uint32_t>(scratch.slot_keys.size());
        scratch.table_slot[h] = slot;
        scratch.slot_keys.push_back(key);
        scratch.counts.push_back(0);
        break;
      }
      if (scratch.table_key[h] == key) {
        slot = scratch.table_slot[h];
        break;
      }
      h = (h + 1) & mask;
    }
    scratch.slot_of_row[row] = slot;
    scratch.counts[slot]++;
  }
}

// The slots GroupByKeys found, ranked by ascending key: the result maps
// each slot to its rank. Sorts the (few) distinct keys, not the rows.
std::vector<uint32_t> RankSlots(const GroupScratch& scratch) {
  const size_t count = scratch.slot_keys.size();
  std::vector<uint32_t> order(count);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&scratch](uint32_t a, uint32_t b) {
    return scratch.slot_keys[a] < scratch.slot_keys[b];
  });
  std::vector<uint32_t> rank(count);
  for (uint32_t i = 0; i < count; ++i) rank[order[i]] = i;
  return rank;
}

// Bits that hold every code below `cardinality`.
int BitsFor(uint64_t cardinality) {
  return cardinality > 1 ? static_cast<int>(std::bit_width(cardinality - 1))
                         : 0;
}

}  // namespace

EquivalencePartition EquivalencePartition::FromOrderedGroups(
    size_t row_count, const std::vector<ClassSpan>& groups) {
  EquivalencePartition partition;
  partition.class_of_row_.assign(row_count, 0);
  partition.members_.reserve(row_count);
  partition.offsets_.reserve(groups.size() + 1);
  partition.offsets_.push_back(0);
  for (ClassSpan members : groups) {
    const size_t class_id = partition.offsets_.size() - 1;
    for (size_t row : members) partition.class_of_row_[row] = class_id;
    partition.members_.insert(partition.members_.end(), members.begin(),
                              members.end());
    partition.offsets_.push_back(partition.members_.size());
  }
  return partition;
}

EquivalencePartition EquivalencePartition::FromAnonymization(
    const Anonymization& anonymization) {
  return FromColumns(anonymization.release, anonymization.qi_columns);
}

EquivalencePartition EquivalencePartition::FromColumns(
    const Dataset& dataset, const std::vector<size_t>& columns) {
  StatusOr<EncodedView> view = EncodedView::Build(dataset, columns);
  MDC_CHECK_MSG(view.ok(), "equivalence key column out of range");
  std::vector<std::span<const uint32_t>> codes;
  std::vector<uint32_t> cardinalities;
  for (size_t pos = 0; pos < columns.size(); ++pos) {
    codes.emplace_back(view->codes(pos));
    cardinalities.push_back(
        static_cast<uint32_t>(view->distinct_values(pos).size()));
  }
  return FromCodeColumns(dataset.row_count(), codes, cardinalities);
}

EquivalencePartition EquivalencePartition::FromCodeColumns(
    size_t row_count,
    const std::vector<std::span<const uint32_t>>& code_columns,
    const std::vector<uint32_t>& cardinalities) {
  MDC_CHECK_EQ(code_columns.size(), cardinalities.size());
  static thread_local GroupScratch scratch;
  // Each column shifts in below the ones before it (key = key << bits |
  // code), so ascending keys are ascending code tuples. Before a column
  // that would push the key past 64 bits, the prefix folded so far is
  // grouped and each row's key restarts at its class rank: ranks keep the
  // prefix order and need at most 32 bits, as any column does. Column-outer
  // passes are vertical shift-ors the compiler vectorizes.
  scratch.keys.assign(row_count, 0);
  uint64_t* keys = scratch.keys.data();
  int key_bits = 0;
  for (size_t pos = 0; pos < code_columns.size(); ++pos) {
    const std::span<const uint32_t> codes = code_columns[pos];
    MDC_CHECK_EQ(codes.size(), row_count);
    const int bits = BitsFor(cardinalities[pos]);
    if (key_bits + bits > 64) {
      GroupByKeys(row_count, scratch);
      const std::vector<uint32_t> rank = RankSlots(scratch);
      for (size_t r = 0; r < row_count; ++r) {
        keys[r] = rank[scratch.slot_of_row[r]];
      }
      key_bits = BitsFor(rank.size());
    }
    for (size_t r = 0; r < row_count; ++r) {
      keys[r] = (keys[r] << bits) | codes[r];
    }
    key_bits += bits;
  }
  GroupByKeys(row_count, scratch);
  const std::vector<uint32_t> class_of_slot = RankSlots(scratch);

  // Canonical class order is ascending key; members stay in row order.
  EquivalencePartition partition;
  const size_t class_count = class_of_slot.size();
  partition.offsets_.assign(class_count + 1, 0);
  for (uint32_t slot = 0; slot < class_count; ++slot) {
    partition.offsets_[class_of_slot[slot] + 1] = scratch.counts[slot];
  }
  std::partial_sum(partition.offsets_.begin(), partition.offsets_.end(),
                   partition.offsets_.begin());
  std::vector<size_t> cursor(partition.offsets_.begin(),
                             partition.offsets_.end() - 1);
  partition.members_.resize(row_count);
  partition.class_of_row_.resize(row_count);
  for (size_t r = 0; r < row_count; ++r) {
    const uint32_t class_id = class_of_slot[scratch.slot_of_row[r]];
    partition.class_of_row_[r] = class_id;
    partition.members_[cursor[class_id]++] = r;
  }

  MDC_METRIC_INC("partition.builds");
  MDC_METRIC_ADD("partition.rows", row_count);
  MDC_METRIC_ADD("partition.classes", partition.class_count());
  return partition;
}

ClassSpan EquivalencePartition::class_members(size_t class_id) const {
  MDC_CHECK_LT(class_id, class_count());
  return ClassSpan(members_.data() + offsets_[class_id],
                   offsets_[class_id + 1] - offsets_[class_id]);
}

size_t EquivalencePartition::ClassOfRow(size_t row) const {
  MDC_CHECK_LT(row, class_of_row_.size());
  return class_of_row_[row];
}

size_t EquivalencePartition::ClassSize(size_t class_id) const {
  MDC_CHECK_LT(class_id, class_count());
  return offsets_[class_id + 1] - offsets_[class_id];
}

ClassCodeCounts EquivalencePartition::CountCodes(
    std::span<const uint32_t> codes, size_t cardinality) const {
  MDC_CHECK_EQ(codes.size(), row_count());
  ClassCodeCounts out{{}, {}, {0}};
  // Bins shared by every class: a code's first row in a class lists it,
  // and the class's listed bins are read and cleared when the class ends.
  std::vector<size_t> bins(cardinality, 0);
  for (ClassSpan members : classes()) {
    const size_t first = out.codes.size();
    for (size_t row : members) {
      MDC_CHECK_LT(codes[row], cardinality);
      if (bins[codes[row]]++ == 0) out.codes.push_back(codes[row]);
    }
    std::sort(out.codes.begin() + first, out.codes.end());
    for (size_t i = first; i < out.codes.size(); ++i) {
      out.counts.push_back(std::exchange(bins[out.codes[i]], 0));
    }
    out.offsets.push_back(out.codes.size());
  }
  return out;
}

std::vector<double> EquivalencePartition::ClassSizePerRow() const {
  std::vector<double> sizes(class_of_row_.size(), 0.0);
  for (size_t r = 0; r < class_of_row_.size(); ++r) {
    const size_t c = class_of_row_[r];
    sizes[r] = static_cast<double>(offsets_[c + 1] - offsets_[c]);
  }
  return sizes;
}

size_t EquivalencePartition::MinClassSize() const {
  size_t min_size = 0;
  for (size_t i = 0; i < class_count(); ++i) {
    const size_t size = offsets_[i + 1] - offsets_[i];
    if (i == 0 || size < min_size) min_size = size;
  }
  return min_size;
}

size_t EquivalencePartition::MinClassSizeExempting(
    const std::vector<bool>& exempt) const {
  MDC_CHECK_EQ(exempt.size(), class_of_row_.size());
  size_t min_size = 0;
  bool found = false;
  for (ClassSpan members : classes()) {
    bool counts = false;
    for (size_t row : members) {
      if (!exempt[row]) {
        counts = true;
        break;
      }
    }
    if (!counts) continue;
    if (!found || members.size() < min_size) {
      min_size = members.size();
      found = true;
    }
  }
  return found ? min_size : 0;
}

}  // namespace mdc
