// Taxonomy-tree generalization for categorical attributes.
//
// Nodes are labelled; leaves are the raw domain values. Generalizing a
// value to level l walks l steps up from its leaf, clamping at the root, so
// the paper's marital-status hierarchy
//     * -> {Married, Not Married} -> {CF-Spouse, Spouse Present, ...}
// yields "Married" at level 1 and "*" at level 2. Clamping keeps unbalanced
// trees well-defined while preserving the nesting invariant (the label at
// level l+1 is a function — the parent — of the label at level l).

#ifndef MDC_HIERARCHY_TAXONOMY_HIERARCHY_H_
#define MDC_HIERARCHY_TAXONOMY_HIERARCHY_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "hierarchy/hierarchy.h"

namespace mdc {

class TaxonomyHierarchy final : public ValueHierarchy {
 public:
  class Builder {
   public:
    // `root_label` is the most general label, conventionally "*".
    explicit Builder(std::string root_label = kSuppressedLabel);

    // Declares `label` as a child of `parent`. The parent must already be
    // declared (the root is declared by the constructor). Returns *this so
    // declarations chain.
    Builder& Add(const std::string& label, const std::string& parent);

    // Validates (unique labels, parent links, at least one leaf) and
    // freezes the tree. Leaves are the nodes with no children.
    StatusOr<TaxonomyHierarchy> Build();

   private:
    std::string root_label_;
    std::vector<std::string> labels_;           // Insertion order; [0]=root.
    std::vector<int> parents_;                  // Index into labels_.
    std::unordered_map<std::string, int> index_;
    Status deferred_error_;                     // First Add() error, if any.
  };

  std::string Describe() const override;
  int height() const override { return height_; }
  StatusOr<std::string> Generalize(const Value& value,
                                   int level) const override;

  // Number of leaf values in the tree (the |domain| used by loss metrics).
  size_t leaf_count() const { return leaf_count_; }

  // Number of leaves underneath `label` (a leaf counts itself); 0 if the
  // label is unknown.
  size_t LeavesUnder(const std::string& label) const;

  // All leaf labels, in declaration order.
  std::vector<std::string> Leaves() const;

  // Earth Mover's Distance between two distributions over this taxonomy's
  // leaves, under the hierarchical ground distance of Li et al.'s
  // t-closeness paper: the distance between two leaves is
  // height(LCA)/height(tree), and the minimal transport cost decomposes
  // over internal nodes as (height(N)/H) * min(positive, negative) excess
  // among N's child subtrees. `p` and `q` map leaf labels to
  // probabilities; missing leaves count as 0. Fails if a key is not a
  // leaf or if either distribution does not sum to ~1.
  StatusOr<double> HierarchicalEmd(
      const std::map<std::string, double>& p,
      const std::map<std::string, double>& q) const;

 private:
  TaxonomyHierarchy() = default;

  std::vector<std::string> labels_;
  std::vector<int> parents_;      // parent index; root's parent is -1.
  std::vector<int> depths_;       // root depth 0.
  std::vector<size_t> leaves_under_;
  std::vector<bool> is_leaf_;
  std::unordered_map<std::string, int> index_;
  int height_ = 1;                // Max leaf depth (>= 1).
  size_t leaf_count_ = 0;
};

}  // namespace mdc

#endif  // MDC_HIERARCHY_TAXONOMY_HIERARCHY_H_
