// Personalized privacy (after Xiao & Tao, SIGMOD 2006).
//
// Each individual specifies a *guarding node* — a label in the sensitive
// attribute's taxonomy — and a tolerated breach probability. The breach
// probability of a tuple is the fraction of its equivalence class whose
// sensitive value falls under the tuple's guarding node: the adversary's
// chance of (correctly) inferring that the individual's value lies in the
// guarded subtree. The paper (§2) points out that even this personalized
// model exhibits anonymization bias, since actual breach probabilities
// vary across tuples; BreachProbabilities() is exactly the per-tuple
// vector the paper's framework compares.

#ifndef MDC_PRIVACY_PERSONALIZED_H_
#define MDC_PRIVACY_PERSONALIZED_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hierarchy/taxonomy_hierarchy.h"
#include "privacy/privacy_model.h"

namespace mdc {

class PersonalizedPrivacy final : public PrivacyModel {
 public:
  // `guarding_nodes[i]` is the taxonomy label guarded by row i;
  // `thresholds[i]` the tolerated breach probability. Both must have one
  // entry per row of the data set the model is evaluated on.
  PersonalizedPrivacy(std::shared_ptr<const TaxonomyHierarchy> taxonomy,
                      std::vector<std::string> guarding_nodes,
                      std::vector<double> thresholds,
                      std::optional<size_t> sensitive_column = std::nullopt);

  std::string Name() const override { return "personalized-privacy"; }
  bool Satisfies(const Anonymization& anonymization,
                 const EquivalencePartition& partition) const override;
  // Achieved bound: maximum breach probability over non-suppressed rows.
  double Measure(const Anonymization& anonymization,
                 const EquivalencePartition& partition) const override;
  bool HigherIsStronger() const override { return false; }

  // Per-row breach probabilities (suppressed rows get 0: their class link
  // is severed). Fails if the arity does not match the release.
  StatusOr<std::vector<double>> BreachProbabilities(
      const Anonymization& anonymization,
      const EquivalencePartition& partition) const;

 private:
  std::shared_ptr<const TaxonomyHierarchy> taxonomy_;
  std::vector<std::string> guards_;     // Distinct guarding nodes.
  std::vector<uint32_t> guard_of_row_;  // Row -> index into guards_.
  std::vector<double> thresholds_;
  std::optional<size_t> sensitive_column_;
};

}  // namespace mdc

#endif  // MDC_PRIVACY_PERSONALIZED_H_
