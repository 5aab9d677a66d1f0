#include "privacy/privacy_model.h"

#include <ranges>
#include <span>

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

namespace {

// Counts the printed sensitive values of `rows`. A string column is read
// through its dictionary; a number prints as Value::ToString does.
template <typename Rows>
std::map<std::string, size_t> CountSensitive(const Dataset& data,
                                             size_t column,
                                             const Rows& rows) {
  std::map<std::string, size_t> counts;
  if (data.schema().attribute(column).type == AttributeType::kString) {
    const std::vector<std::string>& dictionary = data.dictionary(column);
    const std::span<const uint32_t> codes = data.codes(column);
    for (size_t row : rows) ++counts[dictionary[codes[row]]];
  } else {
    for (size_t row : rows) ++counts[data.cell(row, column).ToString()];
  }
  return counts;
}

}  // namespace

std::map<std::string, size_t> SensitiveCounts(
    const Anonymization& anonymization, const EquivalencePartition& partition,
    size_t class_id, size_t sensitive_column) {
  return CountSensitive(*anonymization.original, sensitive_column,
                        partition.class_members(class_id));
}

std::map<std::string, size_t> GlobalSensitiveCounts(
    const Anonymization& anonymization, size_t sensitive_column) {
  return CountSensitive(
      *anonymization.original, sensitive_column,
      std::views::iota(size_t{0}, anonymization.original->row_count()));
}

}  // namespace mdc
