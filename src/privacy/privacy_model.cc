#include "privacy/privacy_model.h"

namespace mdc {

StatusOr<size_t> ResolveSensitiveColumn(const Schema& schema,
                                        std::optional<size_t> requested) {
  if (requested.has_value()) {
    if (*requested >= schema.attribute_count()) {
      return Status::OutOfRange("sensitive column index out of range");
    }
    return *requested;
  }
  std::vector<size_t> sensitive = schema.SensitiveIndices();
  if (sensitive.empty()) {
    return Status::FailedPrecondition(
        "schema has no sensitive attribute; specify the column explicitly");
  }
  if (sensitive.size() > 1) {
    return Status::FailedPrecondition(
        "schema has several sensitive attributes; specify the column "
        "explicitly");
  }
  return sensitive[0];
}

bool ClassIsActive(const EquivalencePartition& partition, size_t class_id,
                   const std::vector<bool>& suppressed) {
  for (size_t row : partition.class_members(class_id)) {
    if (!suppressed[row]) return true;
  }
  return false;
}

SensitiveCodeCounts CountSensitive(const Anonymization& anonymization,
                                   const EquivalencePartition& partition,
                                   size_t sensitive_column) {
  StatusOr<EncodedView> view =
      EncodedView::Build(*anonymization.original, {sensitive_column});
  MDC_CHECK_MSG(view.ok(), "sensitive column out of range");
  ClassCodeCounts per_class = partition.CountCodes(
      view->codes(0), view->distinct_values(0).size());
  return {std::move(view).value(), std::move(per_class)};
}

}  // namespace mdc
