#include "utility/entropy_loss.h"

#include <cmath>
#include <span>

#include "table/encoded_view.h"

namespace mdc {

StatusOr<PropertyVector> EntropyLoss::PerTupleLoss(
    const Anonymization& anonymization) {
  if (!anonymization.scheme.has_value()) {
    return Status::FailedPrecondition(
        "EntropyLoss requires a full-domain scheme");
  }
  const size_t rows = anonymization.row_count();
  const size_t qi = anonymization.qi_columns.size();
  if (qi == 0) {
    return Status::FailedPrecondition("no quasi-identifier columns");
  }
  MDC_ASSIGN_OR_RETURN(EncodedView view,
                       EncodedView::Build(*anonymization.original,
                                          anonymization.qi_columns));
  std::vector<double> loss(rows, 0.0);
  for (size_t pos = 0; pos < qi; ++pos) {
    const size_t column = anonymization.qi_columns[pos];
    const ValueHierarchy* hierarchy =
        anonymization.scheme->hierarchies().ForColumn(column);
    if (hierarchy == nullptr) {
      return Status::InvalidArgument("column has no hierarchy in the scheme");
    }
    const std::vector<Value>& distinct = view.distinct_values(pos);
    const double total = static_cast<double>(distinct.size());
    if (total <= 1.0) continue;  // A constant column loses nothing.
    const double denom = std::log2(total);

    // One charge per label code; a label table may hold labels no row
    // uses, so an uncovered label is an error only when a row carries it.
    const std::vector<std::string>& labels =
        anonymization.release.dictionary(column);
    const std::vector<size_t> covered =
        CountCovered(*hierarchy, distinct, labels);
    std::vector<double> charge(labels.size(), 0.0);
    for (size_t code = 0; code < labels.size(); ++code) {
      if (covered[code] > 0) {
        charge[code] = std::log2(static_cast<double>(covered[code])) / denom /
                       static_cast<double>(qi);
      }
    }
    const std::span<const uint32_t> codes = anonymization.release.codes(column);
    for (size_t r = 0; r < rows; ++r) {
      if (anonymization.suppressed[r]) {
        // A suppressed cell covers every present value: log2(M)/log2(M).
        loss[r] += 1.0 / static_cast<double>(qi);
      } else if (covered[codes[r]] == 0) {
        return Status::Internal("label '" + labels[codes[r]] +
                                "' covers no present value");
      } else {
        loss[r] += charge[codes[r]];
      }
    }
  }
  return PropertyVector("entropy-loss", std::move(loss));
}

StatusOr<PropertyVector> EntropyLoss::PerTupleUtility(
    const Anonymization& anonymization) {
  MDC_ASSIGN_OR_RETURN(PropertyVector loss, PerTupleLoss(anonymization));
  std::vector<double> utility(loss.size());
  for (size_t i = 0; i < loss.size(); ++i) utility[i] = 1.0 - loss[i];
  return PropertyVector("entropy-utility", std::move(utility));
}

StatusOr<double> EntropyLoss::TotalLoss(const Anonymization& anonymization) {
  MDC_ASSIGN_OR_RETURN(PropertyVector loss, PerTupleLoss(anonymization));
  return loss.Sum();
}

}  // namespace mdc
