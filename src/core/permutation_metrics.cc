#include "core/permutation_metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/metrics.h"
#include "common/radix_order.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "common/waves.h"

namespace mdc {
namespace {

// Order-preserving key of a finite double: unsigned order of the keys is
// the order of `<` on the values. A positive value's bits already order
// as unsigned integers once the sign bit is set; a negative value's bits
// order backwards, so they are complemented. Zero is folded to +0.0 first
// (−0.0 would otherwise key below +0.0).
uint64_t OrderKey(double value) {
  if (value == 0.0) value = 0.0;
  constexpr uint64_t kSign = uint64_t{1} << 63;
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

Status ValidateFinite(const std::vector<double>& values,
                      const std::string& what) {
  for (double v : values) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(what + " contains a non-finite value");
    }
  }
  return Status::Ok();
}

// rank[order[r]] = r: the ranks of a stable order.
std::vector<uint32_t> RanksOf(const std::vector<uint32_t>& order) {
  std::vector<uint32_t> ranks(order.size());
  for (size_t r = 0; r < order.size(); ++r) {
    ranks[order[r]] = static_cast<uint32_t>(r);
  }
  return ranks;
}

// Per-attribute model build — runs inside the wave, one slot per
// attribute. `row_of_rank` is the original's order (row_of_rank_X): the
// attribute's OriginalOrders slot, ranked here when still empty, or a
// local when no orders are shared.
PermutationAttributeModel BuildAttributeModel(
    const std::vector<double>& original,
    const std::vector<double>& anonymized, const std::string& name,
    std::vector<uint32_t>& row_of_rank) {
  PermutationAttributeModel model;
  model.name = name;
  // sigma matches release ranks against original ranks (the rank-linkage
  // attack).
  if (row_of_rank.empty()) row_of_rank = StableOrder(original);
  MDC_CHECK(row_of_rank.size() == original.size());
  model.original_ranks = RanksOf(row_of_rank);
  model.anonymized_ranks = RankVector(anonymized);
  const size_t n = original.size();
  model.permutation.resize(n);
  model.rank_distance.resize(n);
  model.max_distance = n > 1 ? static_cast<double>(n - 1) : 1.0;
  for (size_t i = 0; i < n; ++i) {
    model.permutation[i] = row_of_rank[model.anonymized_ranks[i]];
    const double dist = std::abs(static_cast<double>(model.anonymized_ranks[i]) -
                                 static_cast<double>(model.original_ranks[i]));
    model.rank_distance[i] = dist;
    model.footrule += dist;
  }
  model.mean_normalized_distance =
      model.footrule / (static_cast<double>(n) * model.max_distance);
  return model;
}

}  // namespace

std::vector<uint32_t> StableOrder(std::span<const double> values) {
  return RadixOrder(values.size(),
                    [values](uint32_t row) { return OrderKey(values[row]); });
}

std::vector<uint32_t> RankVector(const std::vector<double>& values) {
  return RanksOf(StableOrder(values));
}

StatusOr<std::vector<uint32_t>> ImplicitPermutation(
    const std::vector<double>& original,
    const std::vector<double>& anonymized) {
  if (original.empty() || original.size() != anonymized.size()) {
    return Status::InvalidArgument(
        "implicit permutation needs two non-empty columns of equal size");
  }
  MDC_RETURN_IF_ERROR(ValidateFinite(original, "original column"));
  MDC_RETURN_IF_ERROR(ValidateFinite(anonymized, "anonymized column"));
  std::vector<uint32_t> row_of_rank;
  return BuildAttributeModel(original, anonymized, "", row_of_rank)
      .permutation;
}

StatusOr<PermutationModel> BuildPermutationModel(
    const std::vector<std::vector<double>>& original_columns,
    const std::vector<std::vector<double>>& anonymized_columns,
    const std::vector<std::string>& names,
    const PermutationMetricsOptions& options, RunContext* run,
    OriginalOrders* originals) {
  if (original_columns.empty() ||
      original_columns.size() != anonymized_columns.size() ||
      original_columns.size() != names.size()) {
    return Status::InvalidArgument(
        "permutation model needs aligned, non-empty column/name lists");
  }
  const size_t rows = original_columns[0].size();
  if (rows == 0) {
    return Status::InvalidArgument("permutation model needs at least one row");
  }
  for (size_t a = 0; a < original_columns.size(); ++a) {
    if (original_columns[a].size() != rows ||
        anonymized_columns[a].size() != rows) {
      return Status::InvalidArgument(
          "permutation model: column " + std::to_string(a) +
          " sizes disagree");
    }
    MDC_RETURN_IF_ERROR(
        ValidateFinite(original_columns[a], "original column " + names[a]));
    MDC_RETURN_IF_ERROR(ValidateFinite(anonymized_columns[a],
                                       "anonymized column " + names[a]));
  }

  PermutationModel model;
  model.rows = rows;
  const size_t attribute_count = original_columns.size();
  std::vector<double> privacy_sum(rows, 0.0);
  OriginalOrders local;
  if (originals == nullptr) originals = &local;
  if (originals->row_of_rank.empty()) {
    originals->row_of_rank.resize(attribute_count);
  }
  MDC_CHECK(originals->row_of_rank.size() == attribute_count);

  // Admission charges `rows` steps per attribute, in attribute order, so
  // a budget expires at the same attribute for every thread count. Commits
  // add the privacy sums in attribute order (FP addition order fixed) and
  // advance the perm.* counters serially.
  ThreadPool pool(ThreadPool::ResolveThreadCount(options.threads));
  size_t next = 0;
  MDC_RETURN_IF_ERROR(RunWaves(
      pool, next, attribute_count,
      [&](size_t) -> StatusOr<WaveAdmit> {
        MDC_RETURN_IF_ERROR(RunContext::Check(run, rows));
        return WaveAdmit::kRun;
      },
      [&](size_t a) {
        return BuildAttributeModel(original_columns[a], anonymized_columns[a],
                                   names[a], originals->row_of_rank[a]);
      },
      [&](size_t, PermutationAttributeModel& attribute) -> Status {
        for (size_t i = 0; i < rows; ++i) {
          privacy_sum[i] += attribute.rank_distance[i] / attribute.max_distance;
        }
        MDC_METRIC_INC("perm.attributes_modeled");
        MDC_METRIC_ADD("perm.rows_ranked", rows);
        model.attributes.push_back(std::move(attribute));
        return Status::Ok();
      }));

  std::vector<double> privacy(rows);
  std::vector<double> utility(rows);
  for (size_t i = 0; i < rows; ++i) {
    privacy[i] = privacy_sum[i] / static_cast<double>(attribute_count);
    utility[i] = 1.0 - privacy[i];
  }
  model.privacy = PropertyVector("perm-privacy", std::move(privacy));
  model.utility = PropertyVector("perm-utility", std::move(utility));
  MDC_METRIC_INC("perm.models_built");
  return model;
}

StatusOr<std::vector<double>> NumericReleaseColumn(
    const Anonymization& anonymization,
    const EquivalencePartition* partition, size_t column) {
  const Dataset& original = *anonymization.original;
  const Dataset& release = anonymization.release;
  if (column >= original.column_count()) {
    return Status::InvalidArgument("column index out of range");
  }
  const AttributeType type = original.schema().attribute(column).type;
  if (type == AttributeType::kString) {
    return Status::InvalidArgument(
        "column '" + original.schema().attribute(column).name +
        "' is not numeric in the original schema");
  }
  // A numeric release column is read as is; a generalized (string-label)
  // one maps each row to the mean ORIGINAL value of its class — the
  // reverse mapping.
  if (release.schema().attribute(column).type != AttributeType::kString) {
    return release.Numbers(column);
  }
  const size_t rows = release.row_count();
  std::vector<double> out(rows, 0.0);
  if (rows == 0) return out;
  if (partition == nullptr) {
    return Status::InvalidArgument(
        "generalized release column needs an equivalence partition for "
        "reverse mapping");
  }
  const std::vector<double> values = original.Numbers(column);
  std::vector<double> class_mean(partition->class_count(), 0.0);
  for (size_t c = 0; c < partition->class_count(); ++c) {
    ClassSpan members = partition->class_members(c);
    double sum = 0.0;
    for (size_t row : members) sum += values[row];
    class_mean[c] = sum / static_cast<double>(members.size());
  }
  for (size_t r = 0; r < rows; ++r) {
    out[r] = class_mean[partition->ClassOfRow(r)];
  }
  return out;
}

StatusOr<PermutationModel> PermutationModelFor(
    const Anonymization& anonymization,
    const EquivalencePartition* partition,
    const PermutationMetricsOptions& options, RunContext* run,
    OriginalOrders* originals) {
  const Schema& schema = anonymization.original->schema();
  std::vector<std::vector<double>> original_columns;
  std::vector<std::vector<double>> anonymized_columns;
  std::vector<std::string> names;
  for (size_t qi : schema.QuasiIdentifierIndices()) {
    const AttributeType type = schema.attribute(qi).type;
    if (type != AttributeType::kInt && type != AttributeType::kReal) continue;
    MDC_ASSIGN_OR_RETURN(std::vector<double> released,
                         NumericReleaseColumn(anonymization, partition, qi));
    original_columns.push_back(anonymization.original->Numbers(qi));
    anonymized_columns.push_back(std::move(released));
    names.push_back(schema.attribute(qi).name);
  }
  if (original_columns.empty()) {
    return Status::InvalidArgument(
        "permutation model needs at least one numeric quasi-identifier "
        "column");
  }
  return BuildPermutationModel(original_columns, anonymized_columns, names,
                               options, run, originals);
}

std::string PermutationModelSummary(const PermutationModel& model) {
  TextTable table;
  table.SetHeader({"attribute", "footrule", "mean_disp", "max_disp"});
  for (const PermutationAttributeModel& attribute : model.attributes) {
    double max_disp = 0.0;
    for (double d : attribute.rank_distance) max_disp = std::max(max_disp, d);
    table.AddRow({attribute.name, FormatDouble(attribute.footrule, 4),
                  FormatDouble(attribute.mean_normalized_distance, 4),
                  FormatDouble(max_disp / attribute.max_distance, 4)});
  }
  std::string out = "permutation model: N=" + std::to_string(model.rows) +
                    " attributes=" + std::to_string(model.attributes.size()) +
                    "\n" + table.Render();
  out += "mean privacy (normalized rank displacement) = " +
         FormatDouble(model.privacy.Mean(), 4) + "\n";
  out += "mean utility (1 - displacement)             = " +
         FormatDouble(model.utility.Mean(), 4) + "\n";
  return out;
}

}  // namespace mdc
