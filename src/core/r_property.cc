#include "core/r_property.h"

#include "core/properties.h"
#include "utility/loss_metric.h"

namespace mdc {

StatusOr<PropertySet> InduceProperties(
    const Anonymization& anonymization, const EquivalencePartition& partition,
    const std::vector<PropertyExtractor>& extractors) {
  if (extractors.empty()) {
    return Status::InvalidArgument("no property extractors given");
  }
  PropertySet properties;
  properties.reserve(extractors.size());
  for (const PropertyExtractor& extractor : extractors) {
    MDC_ASSIGN_OR_RETURN(PropertyVector vector,
                         extractor.fn(anonymization, partition));
    if (vector.size() != anonymization.row_count()) {
      return Status::Internal("extractor '" + extractor.name +
                              "' produced a wrong-sized vector");
    }
    properties.push_back(std::move(vector));
  }
  return properties;
}

PropertyExtractor ClassSizeExtractor() {
  return {"equivalence-class-size",
          [](const Anonymization&, const EquivalencePartition& partition)
              -> StatusOr<PropertyVector> {
            return EquivalenceClassSizeVector(partition);
          }};
}

PropertyExtractor LinkagePrivacyExtractor() {
  return {"linkage-privacy",
          [](const Anonymization&, const EquivalencePartition& partition)
              -> StatusOr<PropertyVector> {
            return LinkagePrivacyVector(partition);
          }};
}

PropertyExtractor SensitiveRarityExtractor(
    std::optional<size_t> sensitive_column) {
  return {"sensitive-rarity",
          [sensitive_column](const Anonymization& anonymization,
                             const EquivalencePartition& partition)
              -> StatusOr<PropertyVector> {
            MDC_ASSIGN_OR_RETURN(
                PropertyVector counts,
                SensitiveCountVector(anonymization, partition,
                                     sensitive_column));
            return counts.Negated("sensitive-rarity");
          }};
}

PropertyExtractor UtilityExtractor() {
  return {"per-tuple-utility",
          [](const Anonymization& anonymization,
             const EquivalencePartition& partition)
              -> StatusOr<PropertyVector> {
            if (anonymization.scheme.has_value()) {
              return LossMetric::PerTupleUtility(anonymization);
            }
            return ClassSpreadLoss::PerTupleUtility(anonymization,
                                                    partition);
          }};
}

std::vector<PropertyExtractor> StandardExtractors(
    std::optional<size_t> sensitive_column) {
  return {ClassSizeExtractor(), SensitiveRarityExtractor(sensitive_column),
          UtilityExtractor()};
}

}  // namespace mdc
