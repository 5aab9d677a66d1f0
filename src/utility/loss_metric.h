// Iyengar's general loss metric (LM, KDD 2002) and a class-spread (NCP)
// variant for hierarchy-free anonymizations.
//
// LM charges each generalized quasi-identifier cell (m-1)/(M-1), where m is
// the number of distinct values *present in the data set* that the cell's
// label covers (ValueHierarchy::Covers: the label lies on the value's
// generalization chain) and M the number of distinct present values of the
// attribute. A suppressed cell covers all M. A per-tuple loss is the sum
// over QI cells (in [0, #QI]); per-tuple utility is (#QI - loss), higher
// better — the orientation the paper's §5.5 example uses for its utility
// property vectors u_a, u_b.
//
// The paper does not fully specify the hierarchy conventions behind its
// printed utility numbers; present-value semantics reproduces the
// *structure* its argument needs (see DESIGN.md, substitution 1).
//
// The NCP variant needs no hierarchies: it charges a class the normalized
// spread of the original values inside it (numeric: range ratio;
// categorical: distinct-count ratio), so it applies to Mondrian releases.

#ifndef MDC_UTILITY_LOSS_METRIC_H_
#define MDC_UTILITY_LOSS_METRIC_H_

#include "anonymize/equivalence.h"
#include "anonymize/generalizer.h"
#include "core/property_vector.h"

namespace mdc {

class LossMetric {
 public:
  // Requires anonymization.scheme (full-domain releases). Lower is better;
  // entries lie in [0, #QI]. Each QI column's coverage is counted once
  // (CountCovered over its present values and its label dictionary), then
  // each row adds its cells' charges in QI column order.
  static StatusOr<PropertyVector> PerTupleLoss(
      const Anonymization& anonymization);

  // (#QI - loss_i) per tuple; higher is better.
  static StatusOr<PropertyVector> PerTupleUtility(
      const Anonymization& anonymization);

  // Sum of per-tuple losses.
  static StatusOr<double> TotalLoss(const Anonymization& anonymization);
};

class ClassSpreadLoss {
 public:
  // Hierarchy-free per-tuple loss: for each QI attribute, the normalized
  // spread of ORIGINAL values within the tuple's equivalence class
  // (numeric: (max-min)/global range; categorical: (distinct-1)/(M-1)),
  // summed over QI attributes. Works for any Anonymization, including
  // Mondrian. Suppressed rows are charged the maximum (1 per attribute).
  static StatusOr<PropertyVector> PerTupleLoss(
      const Anonymization& anonymization,
      const EquivalencePartition& partition);

  static StatusOr<PropertyVector> PerTupleUtility(
      const Anonymization& anonymization,
      const EquivalencePartition& partition);

  static StatusOr<double> TotalLoss(const Anonymization& anonymization,
                                    const EquivalencePartition& partition);
};

}  // namespace mdc

#endif  // MDC_UTILITY_LOSS_METRIC_H_
