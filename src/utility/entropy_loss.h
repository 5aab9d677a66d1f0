// Entropy-based information loss (non-uniform entropy, after Gionis &
// Tassa / de Waal & Willenborg).
//
// A generalized cell that covers m of the attribute's M present distinct
// values loses log2(m) bits of information about the exact value,
// normalized by log2(M): a cell charge in [0, 1]. The per-tuple loss is
// the average charge over QI cells. Requires a full-domain scheme. m is
// counted as LossMetric counts it: once per QI column by CountCovered
// (ValueHierarchy::Covers, the generalization-chain rule), and a
// suppressed cell covers all M.

#ifndef MDC_UTILITY_ENTROPY_LOSS_H_
#define MDC_UTILITY_ENTROPY_LOSS_H_

#include "anonymize/generalizer.h"
#include "core/property_vector.h"

namespace mdc {

class EntropyLoss {
 public:
  // Per-tuple loss in [0, 1]; lower is better.
  static StatusOr<PropertyVector> PerTupleLoss(
      const Anonymization& anonymization);

  // 1 - loss per tuple; higher is better.
  static StatusOr<PropertyVector> PerTupleUtility(
      const Anonymization& anonymization);

  static StatusOr<double> TotalLoss(const Anonymization& anonymization);
};

}  // namespace mdc

#endif  // MDC_UTILITY_ENTROPY_LOSS_H_
