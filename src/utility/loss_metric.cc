#include "utility/loss_metric.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string>

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

// LabelLoss once the column's hierarchy and present values are known.
StatusOr<double> ChargeLabel(const ValueHierarchy& hierarchy,
                             const std::vector<Value>& distinct,
                             const std::string& label) {
  const size_t total = distinct.size();
  if (total <= 1) return 0.0;
  const size_t covered = internal::CoveredCount(hierarchy, distinct, label);
  if (covered == 0) {
    return Status::Internal("label '" + label +
                            "' covers no present value of its column");
  }
  return static_cast<double>(covered - 1) / static_cast<double>(total - 1);
}

}  // namespace

size_t internal::CoveredCount(const ValueHierarchy& hierarchy,
                              const std::vector<Value>& distinct,
                              const std::string& label) {
  size_t covered = 0;
  for (const Value& v : distinct) {
    if (hierarchy.Covers(label, v)) ++covered;
  }
  return covered;
}

StatusOr<double> LossMetric::LabelLoss(const Anonymization& anonymization,
                                       size_t column,
                                       const std::string& label) {
  if (!anonymization.scheme.has_value()) return NeedsScheme();
  const ValueHierarchy* hierarchy =
      anonymization.scheme->hierarchies().ForColumn(column);
  if (hierarchy == nullptr) return NoHierarchy();
  return ChargeLabel(*hierarchy,
                     anonymization.original->DistinctValues(column), label);
}

StatusOr<PropertyVector> LossMetric::PerTupleLoss(
    const Anonymization& anonymization) {
  if (!anonymization.scheme.has_value()) return NeedsScheme();
  const size_t rows = anonymization.row_count();
  std::vector<double> loss(rows, 0.0);
  for (size_t column : anonymization.qi_columns) {
    const ValueHierarchy* hierarchy =
        anonymization.scheme->hierarchies().ForColumn(column);
    const std::vector<Value> distinct =
        anonymization.original->DistinctValues(column);
    // One charge per label code, computed on the first row that uses it:
    // a label table may hold labels no row uses.
    const std::vector<std::string>& labels =
        anonymization.release.dictionary(column);
    const std::span<const uint32_t> codes = anonymization.release.codes(column);
    std::vector<std::optional<double>> label_loss(labels.size());
    for (size_t r = 0; r < rows; ++r) {
      std::optional<double>& charge = label_loss[codes[r]];
      if (!charge.has_value()) {
        if (hierarchy == nullptr) return NoHierarchy();
        MDC_ASSIGN_OR_RETURN(
            charge, ChargeLabel(*hierarchy, distinct, labels[codes[r]]));
      }
      loss[r] += *charge;
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
  const Schema& schema = original.schema();
  const size_t rows = anonymization.row_count();
  if (partition.row_count() != rows) {
    return Status::InvalidArgument("partition arity mismatch");
  }
  std::vector<double> loss(rows, 0.0);
  std::vector<uint32_t> distinct;  // Scratch: one class's string codes.

  for (size_t column : anonymization.qi_columns) {
    const bool is_string =
        schema.attribute(column).type == AttributeType::kString;
    double global_spread = 1.0;
    size_t global_distinct = original.DistinctValues(column).size();
    std::span<const uint32_t> codes;
    std::vector<double> numbers;
    if (is_string) {
      codes = original.codes(column);
    } else {
      MDC_ASSIGN_OR_RETURN(auto range, original.NumericRange(column));
      global_spread = range.second - range.first;
      numbers = original.Numbers(column);
    }

    for (size_t class_id = 0; class_id < partition.class_count();
         ++class_id) {
      ClassSpan members = partition.class_members(class_id);
      double charge = 0.0;
      bool class_suppressed = true;
      for (size_t row : members) {
        if (!anonymization.suppressed[row]) {
          class_suppressed = false;
          break;
        }
      }
      if (class_suppressed) {
        charge = 1.0;
      } else if (is_string) {
        // Codes of one dictionary name distinct strings.
        distinct.clear();
        for (size_t row : members) distinct.push_back(codes[row]);
        std::sort(distinct.begin(), distinct.end());
        const auto count = static_cast<size_t>(
            std::unique(distinct.begin(), distinct.end()) - distinct.begin());
        charge = global_distinct <= 1
                     ? 0.0
                     : static_cast<double>(count - 1) /
                           static_cast<double>(global_distinct - 1);
      } else {
        double lo = numbers[members[0]];
        double hi = lo;
        for (size_t row : members) {
          lo = std::min(lo, numbers[row]);
          hi = std::max(hi, numbers[row]);
        }
        charge = global_spread <= 0.0 ? 0.0 : (hi - lo) / global_spread;
      }
      for (size_t row : members) loss[row] += charge;
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
