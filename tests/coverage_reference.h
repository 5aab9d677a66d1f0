// Test-local reference for label coverage, shared by the hierarchy law
// tests and the LM / entropy-loss oracles.
//
// The library reads coverage off the generalization chain: a label covers
// a value when some level generalizes the value to it
// (ValueHierarchy::Covers, CountCovered). Before that, each hierarchy kind
// stated coverage a second time in its own rule, and LM and entropy loss
// asked that rule once per (label, present value). Those rules and that
// per-label count are kept here, unchanged, as the reference:
//  - interval: "*" covers every number; a label that parses as "(lo,hi]"
//    covers the numbers in lo < v <= hi; any other label covers the
//    number that prints as it.
//  - suffix: "*" covers every code; otherwise a label covers a code of
//    its length that matches it character by character, '*' matching any
//    character.
//  - taxonomy: a label covers a leaf when it is the leaf or one of its
//    ancestors, walked over the tree's parent links.
// A taxonomy's links are not public, so the reference holds its own copy
// of each tree: built from the edges a test passes to the Builder, or,
// for the trees src/ builds, from the edge lists below.

#ifndef MDC_TESTS_COVERAGE_REFERENCE_H_
#define MDC_TESTS_COVERAGE_REFERENCE_H_

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "anonymize/generalizer.h"
#include "common/strings.h"
#include "hierarchy/interval_hierarchy.h"
#include "hierarchy/suffix_hierarchy.h"
#include "hierarchy/taxonomy_hierarchy.h"
#include "table/encoded_view.h"

namespace mdc::coverage_reference {

// "(lo,hi]" parsed back to (lo, hi); nullopt if `label` is not one.
inline std::optional<std::pair<double, double>> ParseInterval(
    const std::string& label) {
  if (label.size() < 5 || label.front() != '(' || label.back() != ']') {
    return std::nullopt;
  }
  size_t comma = label.find(',');
  if (comma == std::string::npos) return std::nullopt;
  std::optional<double> lo = ParseDouble(label.substr(1, comma - 1));
  std::optional<double> hi =
      ParseDouble(label.substr(comma + 1, label.size() - comma - 2));
  if (!lo.has_value() || !hi.has_value() || !(*lo < *hi)) return std::nullopt;
  return std::make_pair(*lo, *hi);
}

inline bool IntervalCovers(const std::string& label, const Value& value) {
  if (value.is_string()) return false;
  if (label == kSuppressedLabel) return true;
  if (auto interval = ParseInterval(label); interval.has_value()) {
    const double v = value.AsNumber();
    return v > interval->first && v <= interval->second;
  }
  return label == value.ToString();
}

inline bool SuffixCovers(const SuffixHierarchy& hierarchy,
                         const std::string& label, const Value& value) {
  auto code = hierarchy.Canonicalize(value);
  if (!code.ok()) return false;
  if (label == kSuppressedLabel) return true;
  if (label.size() != code->size()) return false;
  for (size_t i = 0; i < label.size(); ++i) {
    if (label[i] != '*' && label[i] != (*code)[i]) return false;
  }
  return true;
}

// (child, parent) pairs in declaration order.
using Edges = std::vector<std::pair<std::string, std::string>>;

class Taxonomy {
 public:
  explicit Taxonomy(Edges edges, std::string root = kSuppressedLabel)
      : root_(std::move(root)), edges_(std::move(edges)) {
    for (const auto& [child, parent] : edges_) {
      parent_[child] = parent;
      has_child_.insert(parent);
    }
  }

  bool Covers(const std::string& label, const Value& value) const {
    if (!value.is_string()) return false;
    const std::string& leaf = value.AsString();
    if (!Known(label) || !Known(leaf) || has_child_.count(leaf) != 0) {
      return false;
    }
    for (std::string node = leaf;;) {
      if (node == label) return true;
      auto it = parent_.find(node);
      if (it == parent_.end()) return false;  // Walked past the root.
      node = it->second;
    }
  }

  // Leaves in declaration order, as TaxonomyHierarchy::Leaves lists them.
  std::vector<std::string> Leaves() const {
    std::vector<std::string> leaves;
    for (const auto& edge : edges_) {
      if (has_child_.count(edge.first) == 0) leaves.push_back(edge.first);
    }
    return leaves;
  }

  // True if `tree` has this tree's leaves and the same leaf count under
  // every node, so a copied edge list cannot drift from its source.
  bool Matches(const TaxonomyHierarchy& tree) const {
    if (tree.Leaves() != Leaves()) return false;
    std::map<std::string, size_t> under;
    for (const std::string& leaf : Leaves()) {
      for (std::string node = leaf;;) {
        ++under[node];
        auto it = parent_.find(node);
        if (it == parent_.end()) break;
        node = it->second;
      }
    }
    for (const auto& [node, count] : under) {
      if (tree.LeavesUnder(node) != count) return false;
    }
    return true;
  }

 private:
  bool Known(const std::string& label) const {
    return label == root_ || parent_.count(label) != 0;
  }

  std::string root_;
  Edges edges_;
  std::map<std::string, std::string> parent_;
  std::set<std::string> has_child_;
};

// Two-level trees under "*": each group's leaves, groups declared first.
inline Taxonomy Grouped(
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        groups) {
  Edges edges;
  for (const auto& group : groups) edges.emplace_back(group.first, "*");
  for (const auto& [group, leaves] : groups) {
    for (const std::string& leaf : leaves) edges.emplace_back(leaf, group);
  }
  return Taxonomy(std::move(edges));
}

// The taxonomies src/ builds: paper::MaritalTaxonomy and the census
// generator's education, marital-status and occupation trees.
inline const std::vector<Taxonomy>& KnownTaxonomies() {
  static const std::vector<Taxonomy> known = {
      Grouped({{"Married", {"CF-Spouse", "Spouse Present"}},
               {"Not Married",
                {"Separated", "Never Married", "Divorced", "Spouse Absent"}}}),
      Grouped({{"Low", {"NoSchool", "Primary", "SomeSecondary"}},
               {"Medium", {"HighSchool", "SomeCollege", "AssocDegree"}},
               {"High", {"Bachelors", "Masters", "Doctorate"}}}),
      Grouped({{"Married", {"CivSpouse", "AFSpouse", "SpouseAbsent"}},
               {"NotMarried",
                {"NeverMarried", "Divorced", "Separated", "Widowed"}}}),
      Grouped({{"WhiteCollar", {"Exec", "Prof", "Sales", "Clerical"}},
               {"BlueCollar", {"Craft", "Machine", "Transport", "Labor"}},
               {"Service", {"Protective", "HouseServ", "OtherServ"}}}),
  };
  return known;
}

inline const Taxonomy& KnownTaxonomy(const TaxonomyHierarchy& tree) {
  for (const Taxonomy& known : KnownTaxonomies()) {
    if (known.Matches(tree)) return known;
  }
  MDC_CHECK_MSG(false, "taxonomy has no reference copy");
  return KnownTaxonomies().front();
}

// The reference rule of `hierarchy`'s kind as a callable (label, value);
// a taxonomy must be one of KnownTaxonomies.
inline std::function<bool(const std::string&, const Value&)> RuleFor(
    const ValueHierarchy& hierarchy) {
  if (dynamic_cast<const IntervalHierarchy*>(&hierarchy) != nullptr) {
    return IntervalCovers;
  }
  if (const auto* suffix = dynamic_cast<const SuffixHierarchy*>(&hierarchy)) {
    return [suffix](const std::string& label, const Value& value) {
      return SuffixCovers(*suffix, label, value);
    };
  }
  const auto* taxonomy = dynamic_cast<const TaxonomyHierarchy*>(&hierarchy);
  MDC_CHECK_MSG(taxonomy != nullptr, "unknown hierarchy kind");
  const Taxonomy& known = KnownTaxonomy(*taxonomy);
  return [&known](const std::string& label, const Value& value) {
    return known.Covers(label, value);
  };
}

// How many of `distinct` `label` covers, asked one value at a time.
inline size_t CoveredCount(const ValueHierarchy& hierarchy,
                           const std::vector<Value>& distinct,
                           const std::string& label) {
  const auto covers = RuleFor(hierarchy);
  size_t covered = 0;
  for (const Value& v : distinct) {
    if (covers(label, v)) ++covered;
  }
  return covered;
}

// The LM charge of a label that covers `covered` of a column's `total`
// present values, and its entropy-loss charge before the division by the
// QI count, as LossMetric and EntropyLoss charged them label by label.
inline double LmCharge(size_t covered, size_t total) {
  if (total <= 1) return 0.0;
  MDC_CHECK_MSG(covered > 0, "a used label covers no present value");
  return static_cast<double>(covered - 1) / static_cast<double>(total - 1);
}

inline double EntropyCharge(size_t covered, size_t total) {
  MDC_CHECK_MSG(covered > 0, "a used label covers no present value");
  return std::log2(static_cast<double>(covered)) /
         std::log2(static_cast<double>(total));
}

// LM and entropy loss per tuple from the per-label count, every cell's
// label charged in QI column order. A label's count depends only on the
// original column, its hierarchy and the label, so callers scoring many
// releases of one data set may share a memo keyed by (column, label).
struct Losses {
  std::vector<double> lm;
  std::vector<double> entropy;
};
using CoverageMemo = std::map<std::pair<size_t, std::string>, size_t>;

inline Losses PerTupleLosses(const Anonymization& anonymization,
                             CoverageMemo* memo = nullptr) {
  CoverageMemo local;
  if (memo == nullptr) memo = &local;
  const size_t rows = anonymization.row_count();
  const double qi = static_cast<double>(anonymization.qi_columns.size());
  auto view = EncodedView::Build(*anonymization.original,
                                 anonymization.qi_columns);
  MDC_CHECK(view.ok());
  Losses losses{std::vector<double>(rows, 0.0),
                std::vector<double>(rows, 0.0)};
  for (size_t pos = 0; pos < anonymization.qi_columns.size(); ++pos) {
    const size_t column = anonymization.qi_columns[pos];
    const ValueHierarchy* hierarchy =
        anonymization.scheme->hierarchies().ForColumn(column);
    MDC_CHECK(hierarchy != nullptr);
    const std::vector<Value>& distinct = view->distinct_values(pos);
    const size_t total = distinct.size();
    const std::vector<std::string>& labels =
        anonymization.release.dictionary(column);
    const std::span<const uint32_t> codes = anonymization.release.codes(column);
    // (LM, entropy) charge per label code, on the first row that uses it.
    std::vector<std::optional<std::pair<double, double>>> charges(
        labels.size());
    for (size_t r = 0; r < rows; ++r) {
      auto& charge = charges[codes[r]];
      if (!charge.has_value()) {
        auto [it, inserted] = memo->try_emplace({column, labels[codes[r]]});
        if (inserted) {
          it->second = CoveredCount(*hierarchy, distinct, labels[codes[r]]);
        }
        charge = {LmCharge(it->second, total),
                  total > 1 ? EntropyCharge(it->second, total) / qi : 0.0};
      }
      losses.lm[r] += charge->first;
      if (total > 1) losses.entropy[r] += charge->second;
    }
  }
  return losses;
}

// Every label any level gives one of `values`, in first-seen order.
inline std::vector<std::string> ChainLabels(const ValueHierarchy& hierarchy,
                                            const std::vector<Value>& values) {
  std::vector<std::string> labels;
  std::set<std::string> seen;
  for (const Value& value : values) {
    for (int level = 0; level <= hierarchy.height(); ++level) {
      auto label = hierarchy.Generalize(value, level);
      if (label.ok() && seen.insert(*label).second) labels.push_back(*label);
    }
  }
  return labels;
}

// The law: on every label any level gives `values`, crossed with every
// one of `values`, Covers equals `reference`, and CountCovered equals the
// per-label count under it. Returns the number of pairs compared.
template <typename Reference>
size_t ExpectCoversMatches(const ValueHierarchy& hierarchy,
                           const std::vector<Value>& values,
                           const Reference& reference) {
  const std::vector<std::string> labels = ChainLabels(hierarchy, values);
  const std::vector<size_t> counted =
      CountCovered(hierarchy, values, labels);
  for (size_t i = 0; i < labels.size(); ++i) {
    size_t covered = 0;
    for (const Value& value : values) {
      const bool expected = reference(labels[i], value);
      EXPECT_EQ(hierarchy.Covers(labels[i], value), expected)
          << "label '" << labels[i] << "', value " << value.ToString();
      if (expected) ++covered;
    }
    EXPECT_EQ(counted[i], covered) << "label '" << labels[i] << "'";
  }
  return labels.size() * values.size();
}

}  // namespace mdc::coverage_reference

#endif  // MDC_TESTS_COVERAGE_REFERENCE_H_
