#include "anonymize/generalizer.h"

#include <algorithm>

namespace mdc {

size_t Anonymization::SuppressedCount() const {
  return static_cast<size_t>(
      std::count(suppressed.begin(), suppressed.end(), true));
}

StatusOr<Schema> Generalizer::ReleaseSchema(
    const Schema& schema, const std::vector<size_t>& qi_columns) {
  std::vector<AttributeDef> attributes = schema.attributes();
  for (size_t column : qi_columns) {
    if (column >= attributes.size()) {
      return Status::OutOfRange("QI column index out of range: " +
                                std::to_string(column));
    }
    attributes[column].type = AttributeType::kString;
  }
  return Schema::Create(std::move(attributes));
}

StatusOr<Anonymization> Generalizer::Apply(
    std::shared_ptr<const Dataset> original,
    const GeneralizationScheme& scheme, std::string algorithm) {
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  const Schema& schema = original->schema();
  MDC_RETURN_IF_ERROR(scheme.hierarchies().CoversQuasiIdentifiers(schema));
  for (size_t column : scheme.hierarchies().columns()) {
    if (column >= schema.attribute_count()) {
      return Status::OutOfRange("scheme binds column " +
                                std::to_string(column) +
                                " beyond the schema");
    }
    if (schema.attribute(column).role != AttributeRole::kQuasiIdentifier) {
      return Status::FailedPrecondition(
          "scheme generalizes non-quasi-identifier column '" +
          schema.attribute(column).name + "'");
    }
  }

  const std::vector<size_t>& qi_columns = scheme.hierarchies().columns();
  MDC_ASSIGN_OR_RETURN(Schema release_schema,
                       ReleaseSchema(schema, qi_columns));
  // Hoist the per-position hierarchy and level lookups out of the row loop.
  // A string column is generalized once per dictionary entry, on the first
  // row that holds it, so the first failing cell is still the row-major
  // one.
  constexpr uint32_t kUnseen = UINT32_MAX;
  struct Binding {
    size_t column;
    const ValueHierarchy* hierarchy;
    int level;
    StringInterner labels;
    std::vector<uint32_t> label_of_code;  // String columns only.
  };
  std::vector<Binding> bindings;
  bindings.reserve(qi_columns.size());
  for (size_t pos = 0; pos < qi_columns.size(); ++pos) {
    const size_t column = qi_columns[pos];
    const bool is_string =
        schema.attribute(column).type == AttributeType::kString;
    bindings.push_back(
        {column, &scheme.hierarchies().At(pos), scheme.levels()[pos], {},
         std::vector<uint32_t>(
             is_string ? original->dictionary(column).size() : 0, kUnseen)});
  }
  std::vector<Dataset::Column> columns =
      original->CopyColumnsExcept(qi_columns);
  for (size_t r = 0; r < original->row_count(); ++r) {
    for (Binding& binding : bindings) {
      Dataset::Column& out = columns[binding.column];
      uint32_t* memo = nullptr;
      if (!binding.label_of_code.empty()) {
        memo = &binding.label_of_code[original->codes(binding.column)[r]];
        if (*memo != kUnseen) {
          out.codes.push_back(*memo);
          continue;
        }
      }
      MDC_ASSIGN_OR_RETURN(
          std::string label,
          binding.hierarchy->Generalize(original->cell(r, binding.column),
                                        binding.level));
      out.codes.push_back(binding.labels.Intern(label, out.dictionary));
      if (memo != nullptr) *memo = out.codes.back();
    }
  }
  MDC_ASSIGN_OR_RETURN(
      Dataset release,
      Dataset::FromColumns(std::move(release_schema), std::move(columns)));

  const size_t rows = release.row_count();
  Anonymization out{std::move(original),
                    std::move(release),
                    qi_columns,
                    std::vector<bool>(rows, false),
                    scheme,
                    std::move(algorithm)};
  return out;
}

Status Generalizer::SuppressRows(Anonymization& anonymization,
                                 const std::vector<size_t>& rows) {
  for (size_t row : rows) {
    if (row >= anonymization.release.row_count()) {
      return Status::OutOfRange("suppress row out of range: " +
                                std::to_string(row));
    }
  }
  for (size_t row : rows) {
    anonymization.suppressed[row] = true;
    for (size_t column : anonymization.qi_columns) {
      anonymization.release.set_cell(row, column,
                                     Value(std::string(kSuppressedLabel)));
    }
  }
  return Status::Ok();
}

}  // namespace mdc
