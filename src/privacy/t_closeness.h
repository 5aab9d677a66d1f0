// t-closeness (Li, Li, Venkatasubramanian, ICDE 2007): the distribution of
// the sensitive attribute within every active equivalence class must be
// within Earth Mover's Distance t of its distribution in the whole table.
//
// Two ground distances are implemented, following the original paper:
//  - kEqual: every pair of distinct values is at distance 1; EMD reduces
//    to total variation distance, (1/2) * Σ |p_i - q_i|.
//  - kOrdered: values are equally spaced on a line in sorted order (by
//    value for an int or real column, as text for a string column); EMD is
//    (1/(m-1)) * Σ_i |Σ_{j<=i} (p_j - q_j)| (the cumulative-sum formula).

#ifndef MDC_PRIVACY_T_CLOSENESS_H_
#define MDC_PRIVACY_T_CLOSENESS_H_

#include <memory>
#include <optional>

#include "hierarchy/taxonomy_hierarchy.h"
#include "privacy/privacy_model.h"

namespace mdc {

enum class GroundDistance { kEqual, kOrdered };

class TCloseness final : public PrivacyModel {
 public:
  TCloseness(double t, GroundDistance ground = GroundDistance::kEqual,
             std::optional<size_t> sensitive_column = std::nullopt)
      : t_(t), ground_(ground), sensitive_column_(sensitive_column) {
    MDC_CHECK_GE(t, 0.0);
    MDC_CHECK_LE(t, 1.0);
  }

  std::string Name() const override;
  bool Satisfies(const Anonymization& anonymization,
                 const EquivalencePartition& partition) const override;
  // Achieved t: the maximum per-class EMD (0 when nothing is active).
  double Measure(const Anonymization& anonymization,
                 const EquivalencePartition& partition) const override;
  bool HigherIsStronger() const override { return false; }

 private:
  double t_;
  GroundDistance ground_;
  std::optional<size_t> sensitive_column_;
};

// EMD between two discrete distributions given as parallel probability
// vectors over the same (sorted) support. Both must sum to ~1.
double EarthMoversDistance(const std::vector<double>& p,
                           const std::vector<double>& q,
                           GroundDistance ground);

// Per-active-class EMD to the global sensitive distribution, in class
// order (shared with the property extractors).
StatusOr<std::vector<double>> EmdPerClass(
    const Anonymization& anonymization, const EquivalencePartition& partition,
    GroundDistance ground, std::optional<size_t> sensitive_column);

// t-closeness under the HIERARCHICAL ground distance of Li et al.: the
// distance between two sensitive values is height(LCA)/height(taxonomy).
// Requires the sensitive attribute's taxonomy.
class TClosenessHierarchical final : public PrivacyModel {
 public:
  TClosenessHierarchical(double t,
                         std::shared_ptr<const TaxonomyHierarchy> taxonomy,
                         std::optional<size_t> sensitive_column =
                             std::nullopt)
      : t_(t), taxonomy_(std::move(taxonomy)),
        sensitive_column_(sensitive_column) {
    MDC_CHECK_GE(t, 0.0);
    MDC_CHECK_LE(t, 1.0);
    MDC_CHECK(taxonomy_ != nullptr);
  }

  std::string Name() const override;
  bool Satisfies(const Anonymization& anonymization,
                 const EquivalencePartition& partition) const override;
  double Measure(const Anonymization& anonymization,
                 const EquivalencePartition& partition) const override;
  bool HigherIsStronger() const override { return false; }

 private:
  double t_;
  std::shared_ptr<const TaxonomyHierarchy> taxonomy_;
  std::optional<size_t> sensitive_column_;
};

// Per-active-class hierarchical EMD to the global distribution.
StatusOr<std::vector<double>> HierarchicalEmdPerClass(
    const Anonymization& anonymization, const EquivalencePartition& partition,
    const TaxonomyHierarchy& taxonomy,
    std::optional<size_t> sensitive_column);

}  // namespace mdc

#endif  // MDC_PRIVACY_T_CLOSENESS_H_
