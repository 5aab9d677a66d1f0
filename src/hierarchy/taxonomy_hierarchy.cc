#include "hierarchy/taxonomy_hierarchy.h"

#include <algorithm>

namespace mdc {

TaxonomyHierarchy::Builder::Builder(std::string root_label)
    : root_label_(std::move(root_label)) {
  labels_.push_back(root_label_);
  parents_.push_back(-1);
  index_[root_label_] = 0;
}

TaxonomyHierarchy::Builder& TaxonomyHierarchy::Builder::Add(
    const std::string& label, const std::string& parent) {
  if (!deferred_error_.ok()) return *this;
  if (label.empty()) {
    deferred_error_ = Status::InvalidArgument("empty taxonomy label");
    return *this;
  }
  if (index_.count(label) != 0) {
    deferred_error_ =
        Status::InvalidArgument("duplicate taxonomy label: " + label);
    return *this;
  }
  auto parent_it = index_.find(parent);
  if (parent_it == index_.end()) {
    deferred_error_ = Status::InvalidArgument(
        "parent '" + parent + "' of '" + label + "' not declared yet");
    return *this;
  }
  index_[label] = static_cast<int>(labels_.size());
  labels_.push_back(label);
  parents_.push_back(parent_it->second);
  return *this;
}

StatusOr<TaxonomyHierarchy> TaxonomyHierarchy::Builder::Build() {
  MDC_RETURN_IF_ERROR(deferred_error_);
  if (labels_.size() < 2) {
    return Status::InvalidArgument("taxonomy must have at least one leaf");
  }
  TaxonomyHierarchy tree;
  tree.labels_ = labels_;
  tree.parents_ = parents_;
  tree.index_ = index_;

  const size_t n = labels_.size();
  tree.depths_.assign(n, 0);
  for (size_t i = 1; i < n; ++i) {
    // Parents precede children in declaration order, so depths_ of the
    // parent is already final.
    tree.depths_[i] = tree.depths_[static_cast<size_t>(parents_[i])] + 1;
  }

  std::vector<bool> has_child(n, false);
  for (size_t i = 1; i < n; ++i) {
    has_child[static_cast<size_t>(parents_[i])] = true;
  }
  tree.is_leaf_.assign(n, false);
  tree.leaves_under_.assign(n, 0);
  int max_leaf_depth = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!has_child[i]) {
      tree.is_leaf_[i] = true;
      ++tree.leaf_count_;
      max_leaf_depth = std::max(max_leaf_depth, tree.depths_[i]);
      // Credit this leaf to every ancestor (and itself).
      for (int node = static_cast<int>(i); node != -1;
           node = tree.parents_[static_cast<size_t>(node)]) {
        ++tree.leaves_under_[static_cast<size_t>(node)];
      }
    }
  }
  tree.height_ = std::max(1, max_leaf_depth);
  return tree;
}

std::string TaxonomyHierarchy::Describe() const {
  return "taxonomy(" + std::to_string(leaf_count_) + " leaves, height " +
         std::to_string(height_) + ")";
}

StatusOr<std::string> TaxonomyHierarchy::Generalize(const Value& value,
                                                    int level) const {
  if (level < 0 || level > height_) {
    return Status::OutOfRange("taxonomy level out of range: " +
                              std::to_string(level));
  }
  if (!value.is_string()) {
    return Status::InvalidArgument(
        "taxonomy hierarchy applied to non-string value '" + value.ToString() +
        "'");
  }
  auto it = index_.find(value.AsString());
  if (it == index_.end() || !is_leaf_[static_cast<size_t>(it->second)]) {
    return Status::InvalidArgument("value '" + value.AsString() +
                                   "' is not a leaf of the taxonomy");
  }
  int node = it->second;
  for (int step = 0; step < level && parents_[static_cast<size_t>(node)] != -1;
       ++step) {
    node = parents_[static_cast<size_t>(node)];
  }
  // Level == height() must always be the single most general label.
  if (level == height_) node = 0;
  return labels_[static_cast<size_t>(node)];
}

size_t TaxonomyHierarchy::LeavesUnder(const std::string& label) const {
  auto it = index_.find(label);
  if (it == index_.end()) return 0;
  return leaves_under_[static_cast<size_t>(it->second)];
}

StatusOr<double> TaxonomyHierarchy::HierarchicalEmd(
    const std::map<std::string, double>& p,
    const std::map<std::string, double>& q) const {
  const size_t n = labels_.size();
  // extra[node] = mass surplus of P over Q in the subtree rooted at node.
  std::vector<double> extra(n, 0.0);
  double p_total = 0.0;
  double q_total = 0.0;
  const std::pair<const std::map<std::string, double>*, double> sides[] = {
      {&p, 1.0}, {&q, -1.0}};
  for (const auto& [dist, sign] : sides) {
    for (const auto& [label, mass] : *dist) {
      auto it = index_.find(label);
      if (it == index_.end() || !is_leaf_[static_cast<size_t>(it->second)]) {
        return Status::InvalidArgument("'" + label +
                                       "' is not a leaf of the taxonomy");
      }
      if (mass < 0.0) {
        return Status::InvalidArgument("negative probability for '" + label +
                                       "'");
      }
      extra[static_cast<size_t>(it->second)] += sign * mass;
      (sign > 0 ? p_total : q_total) += mass;
    }
  }
  if (std::abs(p_total - 1.0) > 1e-9 || std::abs(q_total - 1.0) > 1e-9) {
    return Status::InvalidArgument("distributions must each sum to 1");
  }

  // Children lists and subtree heights (height of a leaf is 0).
  std::vector<std::vector<int>> children(n);
  for (size_t i = 1; i < n; ++i) {
    children[static_cast<size_t>(parents_[i])].push_back(
        static_cast<int>(i));
  }
  std::vector<int> subtree_height(n, 0);
  // Nodes are stored parents-first, so a reverse scan is a post-order.
  for (size_t i = n; i-- > 0;) {
    for (int child : children[i]) {
      subtree_height[i] = std::max(
          subtree_height[i], subtree_height[static_cast<size_t>(child)] + 1);
    }
  }

  double cost = 0.0;
  for (size_t i = n; i-- > 0;) {
    if (children[i].empty()) continue;
    double positive = 0.0;
    double negative = 0.0;
    double total = 0.0;
    for (int child : children[i]) {
      double e = extra[static_cast<size_t>(child)];
      if (e > 0) {
        positive += e;
      } else {
        negative -= e;
      }
      total += e;
    }
    // Mass that must cross between child subtrees inside node i, paying
    // the within-subtree ground distance height(i)/H.
    cost += std::min(positive, negative) *
            (static_cast<double>(subtree_height[i]) /
             static_cast<double>(height_));
    extra[i] += total;  // Surplus propagates upward.
  }
  return cost;
}

std::vector<std::string> TaxonomyHierarchy::Leaves() const {
  std::vector<std::string> leaves;
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (is_leaf_[i]) leaves.push_back(labels_[i]);
  }
  return leaves;
}

}  // namespace mdc
