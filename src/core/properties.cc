#include "core/properties.h"

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
  const Dataset& original = *anonymization.original;
  const bool is_string =
      original.schema().attribute(column).type == AttributeType::kString;
  std::vector<double> counts(anonymization.row_count(), 0.0);
  for (size_t class_id = 0; class_id < partition.class_count(); ++class_id) {
    std::map<std::string, size_t> class_counts =
        SensitiveCounts(anonymization, partition, class_id, column);
    for (size_t row : partition.class_members(class_id)) {
      const size_t count =
          is_string
              ? class_counts.at(
                    original.dictionary(column)[original.codes(column)[row]])
              : class_counts.at(original.cell(row, column).ToString());
      counts[row] = static_cast<double>(count);
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
