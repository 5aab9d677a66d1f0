// Base interface for privacy models and shared per-class statistics.
//
// A PrivacyModel decides whether a released table satisfies its guarantee
// and reports the *achieved* scalar parameter (k, ℓ, t, p, …). Scalar
// parameters are exactly the "aggregate quality indices" the paper argues
// are insufficient — the core/ module layers property vectors on top of
// the same per-class statistics computed here, all read through
// CountSensitive: a sensitive value is its value-ordered code.
//
// Convention: classes consisting entirely of suppressed rows are exempt
// from every model's check (their quasi-identifiers are fully generalized,
// so no linking attack applies; the paper keeps such rows in the release).

#ifndef MDC_PRIVACY_PRIVACY_MODEL_H_
#define MDC_PRIVACY_PRIVACY_MODEL_H_

#include <optional>
#include <string>
#include <vector>

#include "anonymize/equivalence.h"
#include "anonymize/generalizer.h"
#include "table/encoded_view.h"

namespace mdc {

class PrivacyModel {
 public:
  virtual ~PrivacyModel() = default;

  // "k-anonymity(3)", "distinct-l-diversity(2)", ...
  virtual std::string Name() const = 0;

  // Whether the release satisfies the model's guarantee.
  virtual bool Satisfies(const Anonymization& anonymization,
                         const EquivalencePartition& partition) const = 0;

  // The achieved parameter value (the k/ℓ/t/p the release actually
  // provides). Whether larger means stronger depends on the model; see
  // HigherIsStronger().
  virtual double Measure(const Anonymization& anonymization,
                         const EquivalencePartition& partition) const = 0;

  // True for k/ℓ/p-style parameters, false for t-closeness-style bounds.
  virtual bool HigherIsStronger() const = 0;
};

// Resolves the sensitive column: `requested` if set, otherwise the schema's
// single kSensitive attribute (error if zero or several).
StatusOr<size_t> ResolveSensitiveColumn(const Schema& schema,
                                        std::optional<size_t> requested);

// True if at least one member row of the class is not suppressed.
bool ClassIsActive(const EquivalencePartition& partition, size_t class_id,
                   const std::vector<bool>& suppressed);

// The sensitive column's counts within each class. Values are read from
// the ORIGINAL data set: an attribute may be generalized in the release
// (the paper's Tables 2–3 generalize Marital Status) yet still be the
// sensitive attribute whose true distribution diversity models reason
// about. `view` codes that column in value order (position 0; text order
// for strings, numbers by value), and `per_class` counts its codes per
// class (EquivalencePartition::CountCodes), so a value is its code in
// every statistic read from here.
struct SensitiveCodeCounts {
  EncodedView view;
  ClassCodeCounts per_class;
};

SensitiveCodeCounts CountSensitive(const Anonymization& anonymization,
                                   const EquivalencePartition& partition,
                                   size_t sensitive_column);

}  // namespace mdc

#endif  // MDC_PRIVACY_PRIVACY_MODEL_H_
