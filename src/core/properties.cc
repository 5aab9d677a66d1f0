#include "core/properties.h"

#include <algorithm>
#include <span>

#include "privacy/privacy_model.h"

namespace mdc {

PropertyVector EquivalenceClassSizeVector(
    const EquivalencePartition& partition) {
  return PropertyVector("equivalence-class-size",
                        partition.ClassSizePerRow());
}

StatusOr<PropertyVector> SensitiveCountVector(
    const Anonymization& anonymization, const EquivalencePartition& partition,
    std::optional<size_t> sensitive_column) {
  MDC_ASSIGN_OR_RETURN(size_t column,
                       ResolveSensitiveColumn(anonymization.release.schema(),
                                              sensitive_column));
  const SensitiveCodeCounts sensitive =
      CountSensitive(anonymization, partition, column);
  const std::span<const uint32_t> codes = sensitive.view.codes(0);
  std::vector<double> counts(anonymization.row_count(), 0.0);
  for (size_t class_id = 0; class_id < partition.class_count(); ++class_id) {
    const std::span<const uint32_t> present =
        sensitive.per_class.codes_of(class_id);
    const std::span<const size_t> count_of =
        sensitive.per_class.counts_of(class_id);
    for (size_t row : partition.class_members(class_id)) {
      const auto at =
          std::lower_bound(present.begin(), present.end(), codes[row]);
      counts[row] = static_cast<double>(count_of[at - present.begin()]);
    }
  }
  return PropertyVector("sensitive-count", std::move(counts));
}

PropertyVector BreachProbabilityVector(
    const EquivalencePartition& partition) {
  std::vector<double> sizes = partition.ClassSizePerRow();
  for (double& s : sizes) s = 1.0 / s;
  return PropertyVector("breach-probability", std::move(sizes));
}

PropertyVector LinkagePrivacyVector(const EquivalencePartition& partition) {
  std::vector<double> sizes = partition.ClassSizePerRow();
  for (double& s : sizes) s = 1.0 - 1.0 / s;
  return PropertyVector("linkage-privacy", std::move(sizes));
}

}  // namespace mdc
