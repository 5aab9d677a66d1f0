#include "utility/loss_metric.h"

#include <span>
#include <string>

#include "table/encoded_view.h"

namespace mdc {
namespace {

Status NeedsScheme() {
  return Status::FailedPrecondition(
      "LossMetric requires a full-domain scheme (use ClassSpreadLoss for "
      "multidimensional releases)");
}

Status NoHierarchy() {
  return Status::InvalidArgument("column has no hierarchy in the scheme");
}

}  // namespace

StatusOr<PropertyVector> LossMetric::PerTupleLoss(
    const Anonymization& anonymization) {
  if (!anonymization.scheme.has_value()) return NeedsScheme();
  const size_t rows = anonymization.row_count();
  MDC_ASSIGN_OR_RETURN(EncodedView view,
                       EncodedView::Build(*anonymization.original,
                                          anonymization.qi_columns));
  std::vector<double> loss(rows, 0.0);
  // No row uses a label, so no column is charged or checked.
  if (rows == 0) return PropertyVector("lm-loss", std::move(loss));
  for (size_t pos = 0; pos < anonymization.qi_columns.size(); ++pos) {
    const size_t column = anonymization.qi_columns[pos];
    const ValueHierarchy* hierarchy =
        anonymization.scheme->hierarchies().ForColumn(column);
    if (hierarchy == nullptr) return NoHierarchy();
    const std::vector<Value>& distinct = view.distinct_values(pos);
    if (distinct.size() <= 1) continue;  // Every charge is 0.
    const double denominator = static_cast<double>(distinct.size() - 1);
    // One charge per label code; a label table may hold labels no row
    // uses, so an uncovered label is an error only when a row carries it.
    const std::vector<std::string>& labels =
        anonymization.release.dictionary(column);
    const std::vector<size_t> covered =
        CountCovered(*hierarchy, distinct, labels);
    std::vector<double> charge(labels.size(), 0.0);
    for (size_t code = 0; code < labels.size(); ++code) {
      if (covered[code] > 0) {
        charge[code] = static_cast<double>(covered[code] - 1) / denominator;
      }
    }
    const std::span<const uint32_t> codes = anonymization.release.codes(column);
    for (size_t r = 0; r < rows; ++r) {
      if (anonymization.suppressed[r]) {
        loss[r] += 1.0;  // A suppressed cell covers every present value.
      } else if (covered[codes[r]] == 0) {
        return Status::Internal("label '" + labels[codes[r]] +
                                "' covers no present value of its column");
      } else {
        loss[r] += charge[codes[r]];
      }
    }
  }
  return PropertyVector("lm-loss", std::move(loss));
}

StatusOr<PropertyVector> LossMetric::PerTupleUtility(
    const Anonymization& anonymization) {
  MDC_ASSIGN_OR_RETURN(PropertyVector loss, PerTupleLoss(anonymization));
  const double qi = static_cast<double>(anonymization.qi_columns.size());
  std::vector<double> utility(loss.size());
  for (size_t i = 0; i < loss.size(); ++i) utility[i] = qi - loss[i];
  return PropertyVector("lm-utility", std::move(utility));
}

StatusOr<double> LossMetric::TotalLoss(const Anonymization& anonymization) {
  MDC_ASSIGN_OR_RETURN(PropertyVector loss, PerTupleLoss(anonymization));
  return loss.Sum();
}

StatusOr<PropertyVector> ClassSpreadLoss::PerTupleLoss(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) {
  const Dataset& original = *anonymization.original;
  const size_t rows = anonymization.row_count();
  if (partition.row_count() != rows) {
    return Status::InvalidArgument("partition arity mismatch");
  }
  // A wholly suppressed class is charged 1 on every column.
  std::vector<bool> active(partition.class_count(), false);
  for (size_t row = 0; row < rows; ++row) {
    if (!anonymization.suppressed[row]) {
      active[partition.ClassOfRow(row)] = true;
    }
  }
  MDC_ASSIGN_OR_RETURN(EncodedView view,
                       EncodedView::Build(original, anonymization.qi_columns));
  std::vector<double> loss(rows, 0.0);
  for (size_t pos = 0; pos < anonymization.qi_columns.size(); ++pos) {
    const size_t column = anonymization.qi_columns[pos];
    const std::vector<Value>& values = view.distinct_values(pos);
    const bool is_string =
        original.schema().attribute(column).type == AttributeType::kString;
    double global_spread = 1.0;
    if (!is_string) {
      MDC_ASSIGN_OR_RETURN(auto range, original.NumericRange(column));
      global_spread = range.second - range.first;
    }
    // A class's codes ascend: a string column is charged for how many it
    // holds, a number column for the span from its first to its last.
    const ClassCodeCounts counts =
        partition.CountCodes(view.codes(pos), values.size());
    for (size_t class_id = 0; class_id < partition.class_count();
         ++class_id) {
      const std::span<const uint32_t> codes = counts.codes_of(class_id);
      double charge = 1.0;
      if (active[class_id] && is_string) {
        charge = values.size() <= 1
                     ? 0.0
                     : static_cast<double>(codes.size() - 1) /
                           static_cast<double>(values.size() - 1);
      } else if (active[class_id]) {
        charge = global_spread <= 0.0
                     ? 0.0
                     : (values[codes.back()].AsNumber() -
                        values[codes.front()].AsNumber()) /
                           global_spread;
      }
      for (size_t row : partition.class_members(class_id)) loss[row] += charge;
    }
  }
  return PropertyVector("class-spread-loss", std::move(loss));
}

StatusOr<PropertyVector> ClassSpreadLoss::PerTupleUtility(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) {
  MDC_ASSIGN_OR_RETURN(PropertyVector loss,
                       PerTupleLoss(anonymization, partition));
  const double qi = static_cast<double>(anonymization.qi_columns.size());
  std::vector<double> utility(loss.size());
  for (size_t i = 0; i < loss.size(); ++i) utility[i] = qi - loss[i];
  return PropertyVector("class-spread-utility", std::move(utility));
}

StatusOr<double> ClassSpreadLoss::TotalLoss(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) {
  MDC_ASSIGN_OR_RETURN(PropertyVector loss,
                       PerTupleLoss(anonymization, partition));
  return loss.Sum();
}

}  // namespace mdc
