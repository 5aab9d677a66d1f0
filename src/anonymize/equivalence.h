// Equivalence-class partitioning of a released table.
//
// Rows with identical quasi-identifier label tuples form an equivalence
// class. Suppressed rows all carry the top label in every QI cell, so they
// naturally coalesce into one class. Class order is deterministic:
// ascending key tuples, which over a release is lexicographic label order.
// One kernel, FromCodeColumns, groups rows for every builder but
// Mondrian's direct emission (FromOrderedGroups).
//
// Storage is CSR-shaped: one flat row-index array partitioned by an
// offsets table. A lattice search builds one (sometimes two) partitions
// per node, and the per-class vector-of-vectors this replaced spent more
// time in the allocator than in the grouping loop; the flat layout costs
// two allocations per build regardless of class count and keeps class
// iteration contiguous. Callers see classes through the lightweight
// ClassSpan/ClassRange views below.

#ifndef MDC_ANONYMIZE_EQUIVALENCE_H_
#define MDC_ANONYMIZE_EQUIVALENCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "anonymize/generalizer.h"
#include "common/status.h"
#include "table/dataset.h"

namespace mdc {

class RunContext;
struct MondrianConfig;
struct MondrianResult;

// Borrowed view of one class's row indices (ascending row order). Valid
// only while the owning EquivalencePartition is alive and unmodified.
class ClassSpan {
 public:
  ClassSpan() : data_(nullptr), size_(0) {}
  ClassSpan(const size_t* data, size_t size) : data_(data), size_(size) {}

  const size_t* begin() const { return data_; }
  const size_t* end() const { return data_ + size_; }
  const size_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t operator[](size_t i) const { return data_[i]; }
  size_t front() const { return data_[0]; }
  size_t back() const { return data_[size_ - 1]; }

  friend bool operator==(ClassSpan a, ClassSpan b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(ClassSpan a, ClassSpan b) { return !(a == b); }
  friend bool operator==(ClassSpan a, const std::vector<size_t>& b) {
    return a == ClassSpan(b.data(), b.size());
  }
  friend bool operator==(const std::vector<size_t>& a, ClassSpan b) {
    return ClassSpan(a.data(), a.size()) == b;
  }

 private:
  const size_t* data_;
  size_t size_;
};

class EquivalencePartition;

// Per-class histograms of one code column (EquivalencePartition::
// CountCodes), CSR-shaped like the partition: class c's distinct codes in
// ascending order are codes[offsets[c] .. offsets[c+1]), and counts holds
// each one's row count at the same position.
struct ClassCodeCounts {
  std::vector<uint32_t> codes;
  std::vector<size_t> counts;
  std::vector<size_t> offsets;

  std::span<const uint32_t> codes_of(size_t class_id) const {
    return {codes.data() + offsets[class_id],
            offsets[class_id + 1] - offsets[class_id]};
  }
  std::span<const size_t> counts_of(size_t class_id) const {
    return {counts.data() + offsets[class_id],
            offsets[class_id + 1] - offsets[class_id]};
  }
};

// Iterable range over a partition's classes, in canonical class order.
// Dereferencing yields ClassSpan values.
class ClassRange {
 public:
  class iterator {
   public:
    using value_type = ClassSpan;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;
    using pointer = const ClassSpan*;
    using reference = ClassSpan;

    iterator(const size_t* members, const size_t* offsets, size_t index)
        : members_(members), offsets_(offsets), index_(index) {}
    ClassSpan operator*() const {
      return ClassSpan(members_ + offsets_[index_],
                       offsets_[index_ + 1] - offsets_[index_]);
    }
    iterator& operator++() {
      ++index_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++index_;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.index_ == b.index_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) {
      return a.index_ != b.index_;
    }

   private:
    const size_t* members_;
    const size_t* offsets_;
    size_t index_;
  };

  ClassRange(const size_t* members, const size_t* offsets, size_t count)
      : members_(members), offsets_(offsets), count_(count) {}

  iterator begin() const { return iterator(members_, offsets_, 0); }
  iterator end() const { return iterator(members_, offsets_, count_); }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  ClassSpan operator[](size_t i) const {
    return ClassSpan(members_ + offsets_[i], offsets_[i + 1] - offsets_[i]);
  }

  friend bool operator==(const ClassRange& a, const ClassRange& b) {
    if (a.count_ != b.count_) return false;
    for (size_t i = 0; i < a.count_; ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
  friend bool operator!=(const ClassRange& a, const ClassRange& b) {
    return !(a == b);
  }

 private:
  const size_t* members_;
  const size_t* offsets_;
  size_t count_;
};

class EquivalencePartition {
 public:
  // Groups the rows of `anonymization.release` by its QI columns.
  static EquivalencePartition FromAnonymization(
      const Anonymization& anonymization);

  // Groups the rows of `dataset` by the given columns: EncodedView codes
  // them in value order and FromCodeColumns groups the codes. Numbers
  // group by value, not by printed text (9 before 10; -0.0 with +0.0).
  static EquivalencePartition FromColumns(const Dataset& dataset,
                                          const std::vector<size_t>& columns);

  // The grouping kernel: groups rows by their code tuples.
  // `code_columns[pos]` is a row-aligned code array whose codes lie in
  // [0, cardinalities[pos]). Classes come in ascending tuple order, column
  // 0 first, so order-isomorphic codes (EncodedView, LevelCodec) give the
  // values' order; members stay in row order. Any tuple width: a column
  // that would overflow the 64-bit key first regroups the prefix and
  // restarts each key at its class rank. Scratch is thread-local.
  static EquivalencePartition FromCodeColumns(
      size_t row_count,
      const std::vector<std::span<const uint32_t>>& code_columns,
      const std::vector<uint32_t>& cardinalities);

  size_t class_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t row_count() const { return class_of_row_.size(); }

  // Views of each class's row indices; classes are in deterministic label
  // order. Views borrow from the partition — do not outlive it.
  ClassRange classes() const {
    return ClassRange(members_.data(), offsets_.data(), class_count());
  }
  ClassSpan class_members(size_t class_id) const;

  size_t ClassOfRow(size_t row) const;
  size_t ClassSize(size_t class_id) const;

  // Each class's distinct codes of the row-aligned `codes` (every code
  // below `cardinality`) with their row counts. Over value-ordered codes
  // (EncodedView) a class's entries come in value order, so every
  // per-class statistic names a value the same way: by its code.
  ClassCodeCounts CountCodes(std::span<const uint32_t> codes,
                             size_t cardinality) const;

  // classes()[ClassOfRow(row)].size() for each row — the raw material of
  // the paper's equivalence-class-size property vector.
  std::vector<double> ClassSizePerRow() const;

  // Smallest class size; 0 for an empty partition.
  size_t MinClassSize() const;

  // Smallest class size among classes with at least one row for which
  // `exempt[row]` is false; suppressed rows are conventionally exempt when
  // algorithms check k-anonymity under a suppression budget.
  size_t MinClassSizeExempting(const std::vector<bool>& exempt) const;

 private:
  // Mondrian knows its classes without regrouping the release: it hands
  // them to FromOrderedGroups directly (anonymize/mondrian.h), sorting its
  // ~N/k partitions instead of hashing N rows.
  friend StatusOr<MondrianResult> MondrianAnonymize(
      std::shared_ptr<const Dataset> original, const MondrianConfig& config,
      RunContext* run);

  // Mondrian's CSR builder: `groups` are the classes in canonical order,
  // each ascending, together covering rows [0, row_count) exactly once.
  static EquivalencePartition FromOrderedGroups(
      size_t row_count, const std::vector<ClassSpan>& groups);

  // CSR storage: members_[offsets_[c] .. offsets_[c+1]) are class c's row
  // indices in ascending row order; offsets_ has class_count()+1 entries
  // (empty only for a default-constructed partition).
  std::vector<size_t> members_;
  std::vector<size_t> offsets_;
  std::vector<size_t> class_of_row_;
};

}  // namespace mdc

#endif  // MDC_ANONYMIZE_EQUIVALENCE_H_
