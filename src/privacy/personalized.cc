#include "privacy/personalized.h"

#include <algorithm>
#include <span>
#include <unordered_map>

namespace mdc {

PersonalizedPrivacy::PersonalizedPrivacy(
    std::shared_ptr<const TaxonomyHierarchy> taxonomy,
    std::vector<std::string> guarding_nodes, std::vector<double> thresholds,
    std::optional<size_t> sensitive_column)
    : taxonomy_(std::move(taxonomy)),
      thresholds_(std::move(thresholds)),
      sensitive_column_(sensitive_column) {
  MDC_CHECK(taxonomy_ != nullptr);
  MDC_CHECK_EQ(guarding_nodes.size(), thresholds_.size());
  std::unordered_map<std::string, uint32_t> index_of;
  guard_of_row_.reserve(guarding_nodes.size());
  for (std::string& node : guarding_nodes) {
    auto [it, inserted] =
        index_of.emplace(node, static_cast<uint32_t>(guards_.size()));
    if (inserted) guards_.push_back(std::move(node));
    guard_of_row_.push_back(it->second);
  }
}

StatusOr<std::vector<double>> PersonalizedPrivacy::BreachProbabilities(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) const {
  if (guard_of_row_.size() != anonymization.row_count()) {
    return Status::InvalidArgument(
        "guarding-node vector arity does not match the release");
  }
  MDC_ASSIGN_OR_RETURN(size_t column,
                       ResolveSensitiveColumn(anonymization.release.schema(),
                                              sensitive_column_));
  const SensitiveCodeCounts sensitive =
      CountSensitive(anonymization, partition, column);
  const std::vector<Value>& values = sensitive.view.distinct_values(0);
  // covers[g * values.size() + code]: Covers runs once per (guarding node,
  // distinct value); a row then sums its class's counts of covered codes.
  std::vector<uint8_t> covers(guards_.size() * values.size());
  for (size_t g = 0; g < guards_.size(); ++g) {
    for (size_t code = 0; code < values.size(); ++code) {
      covers[g * values.size() + code] =
          taxonomy_->Covers(guards_[g], values[code]);
    }
  }
  std::vector<double> breach(anonymization.row_count(), 0.0);
  for (size_t row = 0; row < anonymization.row_count(); ++row) {
    if (anonymization.suppressed[row]) continue;
    const size_t class_id = partition.ClassOfRow(row);
    const std::span<const uint32_t> codes =
        sensitive.per_class.codes_of(class_id);
    const std::span<const size_t> counts =
        sensitive.per_class.counts_of(class_id);
    const uint8_t* guard_covers =
        covers.data() + guard_of_row_[row] * values.size();
    size_t guarded = 0;
    for (size_t i = 0; i < codes.size(); ++i) {
      if (guard_covers[codes[i]]) guarded += counts[i];
    }
    breach[row] = static_cast<double>(guarded) /
                  static_cast<double>(partition.ClassSize(class_id));
  }
  return breach;
}

bool PersonalizedPrivacy::Satisfies(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) const {
  auto breach = BreachProbabilities(anonymization, partition);
  MDC_CHECK(breach.ok());
  for (size_t row = 0; row < breach->size(); ++row) {
    if (anonymization.suppressed[row]) continue;
    if ((*breach)[row] > thresholds_[row] + 1e-12) return false;
  }
  return true;
}

double PersonalizedPrivacy::Measure(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) const {
  auto breach = BreachProbabilities(anonymization, partition);
  MDC_CHECK(breach.ok());
  if (breach->empty()) return 0.0;
  return *std::max_element(breach->begin(), breach->end());
}

}  // namespace mdc
