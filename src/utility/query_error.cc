#include "utility/query_error.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "table/encoded_view.h"

namespace mdc {
namespace {

// Fraction of the class's numeric envelope [lo, hi] that overlaps the
// query range, under the uniform assumption. A point envelope is in or
// out.
double NumericOverlap(double class_lo, double class_hi, double query_lo,
                      double query_hi) {
  if (class_lo == class_hi) {
    return (class_lo >= query_lo && class_lo <= query_hi) ? 1.0 : 0.0;
  }
  double lo = std::max(class_lo, query_lo);
  double hi = std::min(class_hi, query_hi);
  if (hi < lo) return 0.0;
  return (hi - lo) / (class_hi - class_lo);
}

// The dictionary code of the query's categorical value, or nullopt when
// the column's dictionary lacks it and no row can match.
std::optional<uint32_t> CategoricalCode(const Dataset& original,
                                        const RangeQuery& query) {
  const std::vector<std::string>& dictionary =
      original.dictionary(*query.categorical_column);
  auto it = std::find(dictionary.begin(), dictionary.end(),
                      query.categorical_value);
  if (it == dictionary.end()) return std::nullopt;
  return static_cast<uint32_t>(it - dictionary.begin());
}

}  // namespace

StatusOr<QueryWorkload> QueryWorkload::Random(
    const Dataset& original, size_t numeric_column,
    std::optional<size_t> categorical_column, size_t query_count,
    double selectivity, Rng& rng) {
  if (query_count == 0) {
    return Status::InvalidArgument("query count must be positive");
  }
  if (selectivity <= 0.0 || selectivity > 1.0) {
    return Status::InvalidArgument("selectivity must be in (0, 1]");
  }
  MDC_ASSIGN_OR_RETURN(auto range, original.NumericRange(numeric_column));
  double span = range.second - range.first;
  if (span <= 0.0) {
    return Status::FailedPrecondition("numeric column is constant");
  }
  std::vector<Value> categorical_values;
  if (categorical_column.has_value()) {
    if (original.schema().attribute(*categorical_column).type !=
        AttributeType::kString) {
      return Status::InvalidArgument(
          "categorical predicate column must be a string column");
    }
    MDC_ASSIGN_OR_RETURN(EncodedView view,
                         EncodedView::Build(original, {*categorical_column}));
    categorical_values = view.distinct_values(0);
  }

  QueryWorkload workload;
  for (size_t i = 0; i < query_count; ++i) {
    RangeQuery query;
    query.numeric_column = numeric_column;
    double width = span * selectivity;
    double start =
        range.first + rng.NextDouble() * std::max(span - width, 0.0);
    query.lo = start;
    query.hi = start + width;
    if (categorical_column.has_value()) {
      query.categorical_column = categorical_column;
      query.categorical_value =
          categorical_values[rng.NextBelow(categorical_values.size())]
              .AsString();
    }
    workload.queries_.push_back(std::move(query));
  }
  return workload;
}

double TrueCount(const Dataset& original, const RangeQuery& query) {
  const std::vector<double> values = original.Numbers(query.numeric_column);
  std::span<const uint32_t> codes;
  std::optional<uint32_t> wanted;
  if (query.categorical_column.has_value()) {
    codes = original.codes(*query.categorical_column);
    wanted = CategoricalCode(original, query);
  }
  double count = 0.0;
  for (size_t row = 0; row < original.row_count(); ++row) {
    double v = values[row];
    if (v < query.lo || v > query.hi) continue;
    if (query.categorical_column.has_value() && codes[row] != wanted) {
      continue;
    }
    count += 1.0;
  }
  return count;
}

StatusOr<double> EstimatedCount(const Anonymization& anonymization,
                                const EquivalencePartition& partition,
                                const RangeQuery& query) {
  const Dataset& original = *anonymization.original;
  if (query.numeric_column >= original.column_count()) {
    return Status::OutOfRange("query column out of range");
  }
  const std::vector<double> values = original.Numbers(query.numeric_column);
  // Each class's distinct category codes, ascending.
  ClassCodeCounts categories;
  std::optional<uint32_t> wanted;
  if (query.categorical_column.has_value()) {
    const size_t column = *query.categorical_column;
    categories = partition.CountCodes(original.codes(column),
                                      original.dictionary(column).size());
    wanted = CategoricalCode(original, query);
  }
  double estimate = 0.0;
  for (size_t class_id = 0; class_id < partition.class_count(); ++class_id) {
    ClassSpan members = partition.class_members(class_id);
    // Class envelope on the numeric attribute.
    double lo = values[members[0]];
    double hi = lo;
    for (size_t row : members) {
      lo = std::min(lo, values[row]);
      hi = std::max(hi, values[row]);
    }
    double fraction = NumericOverlap(lo, hi, query.lo, query.hi);
    if (fraction <= 0.0) continue;
    if (query.categorical_column.has_value()) {
      // Codes of one dictionary name distinct strings.
      const std::span<const uint32_t> codes = categories.codes_of(class_id);
      if (!wanted.has_value() ||
          !std::binary_search(codes.begin(), codes.end(), *wanted)) {
        continue;
      }
      fraction /= static_cast<double>(codes.size());
    }
    estimate += fraction * static_cast<double>(members.size());
  }
  return estimate;
}

StatusOr<QueryErrorReport> EvaluateWorkload(
    const Anonymization& anonymization, const EquivalencePartition& partition,
    const QueryWorkload& workload) {
  QueryErrorReport report;
  std::vector<double> errors;
  for (const RangeQuery& query : workload.queries()) {
    double truth = TrueCount(*anonymization.original, query);
    if (truth == 0.0) {
      ++report.skipped_queries;
      continue;
    }
    MDC_ASSIGN_OR_RETURN(double estimate,
                         EstimatedCount(anonymization, partition, query));
    errors.push_back(std::abs(estimate - truth) / truth);
  }
  report.evaluated_queries = errors.size();
  if (!errors.empty()) {
    double sum = 0.0;
    for (double e : errors) sum += e;
    report.mean_relative_error = sum / static_cast<double>(errors.size());
    std::sort(errors.begin(), errors.end());
    report.median_relative_error = errors[errors.size() / 2];
  }
  return report;
}

}  // namespace mdc
