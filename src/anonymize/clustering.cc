#include "anonymize/clustering.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/strings.h"
#include "table/encoded_view.h"

namespace mdc {
namespace {

// Rows are embedded in [0,1]^d: numeric QI columns min-max scaled,
// categorical columns mapped to the index of their (sorted) distinct
// value, scaled. This gives the greedy loop a cheap distance and spread.
struct Embedding {
  std::vector<std::vector<double>> coords;  // [row][qi-dim].

  static StatusOr<Embedding> Build(const Dataset& data,
                                   const std::vector<size_t>& qi_columns) {
    Embedding embedding;
    embedding.coords.assign(data.row_count(), {});
    for (size_t column : qi_columns) {
      const bool is_string =
          data.schema().attribute(column).type == AttributeType::kString;
      if (is_string) {
        // Codes of an encoded view are the ranks of the sorted distinct
        // values.
        MDC_ASSIGN_OR_RETURN(EncodedView view,
                             EncodedView::Build(data, {column}));
        const size_t distinct = view.distinct_values(0).size();
        for (size_t row = 0; row < data.row_count(); ++row) {
          embedding.coords[row].push_back(
              distinct > 1 ? static_cast<double>(view.codes(0)[row]) /
                                 static_cast<double>(distinct - 1)
                           : 0.0);
        }
      } else {
        MDC_ASSIGN_OR_RETURN(auto range, data.NumericRange(column));
        double span = range.second - range.first;
        const std::vector<double> values = data.Numbers(column);
        for (size_t row = 0; row < data.row_count(); ++row) {
          embedding.coords[row].push_back(
              span > 0.0 ? (values[row] - range.first) / span : 0.0);
        }
      }
    }
    return embedding;
  }

  double Distance(size_t a, size_t b) const {
    double sum = 0.0;
    for (size_t d = 0; d < coords[a].size(); ++d) {
      double diff = coords[a][d] - coords[b][d];
      sum += diff * diff;
    }
    return std::sqrt(sum);
  }
};

// Spread of a cluster if `row` joined: sum over dimensions of the
// resulting (max - min).
double SpreadWith(const Embedding& embedding,
                  const std::vector<double>& lo, const std::vector<double>& hi,
                  size_t row) {
  double spread = 0.0;
  for (size_t d = 0; d < lo.size(); ++d) {
    double new_lo = std::min(lo[d], embedding.coords[row][d]);
    double new_hi = std::max(hi[d], embedding.coords[row][d]);
    spread += new_hi - new_lo;
  }
  return spread;
}

// Range label per cluster and column, Mondrian-style. `numbers` is a
// numeric column as doubles (Dataset::Numbers), empty for a string column.
std::string ClusterLabel(const Dataset& data,
                         const std::vector<double>& numbers,
                         const std::vector<size_t>& members, size_t column) {
  if (numbers.empty()) {
    const std::vector<std::string>& dictionary = data.dictionary(column);
    const std::span<const uint32_t> codes = data.codes(column);
    const std::string* lo = &dictionary[codes[members[0]]];
    const std::string* hi = lo;
    for (size_t row : members) {
      const std::string& v = dictionary[codes[row]];
      if (v < *lo) lo = &v;
      if (*hi < v) hi = &v;
    }
    return *lo == *hi ? *lo : "[" + *lo + ".." + *hi + "]";
  }
  double lo = numbers[members[0]];
  double hi = lo;
  for (size_t row : members) {
    lo = std::min(lo, numbers[row]);
    hi = std::max(hi, numbers[row]);
  }
  if (lo == hi) return FormatCompact(lo);
  std::string label = "[";
  label.append(FormatCompact(lo)).append("-").append(FormatCompact(hi));
  return label.append("]");
}

}  // namespace

StatusOr<ClusteringResult> KMemberClusterAnonymize(
    std::shared_ptr<const Dataset> original, const ClusteringConfig& config,
    RunContext* run) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  const Schema& schema = original->schema();
  std::vector<size_t> qi_columns = schema.QuasiIdentifierIndices();
  if (qi_columns.empty()) {
    return Status::FailedPrecondition(
        "clustering requires at least one quasi-identifier column");
  }
  const size_t n = original->row_count();
  if (n < static_cast<size_t>(config.k)) {
    return Status::Infeasible("clustering: fewer than k rows");
  }
  MDC_ASSIGN_OR_RETURN(Embedding embedding,
                       Embedding::Build(*original, qi_columns));

  std::vector<bool> assigned(n, false);
  std::vector<std::vector<size_t>> clusters;
  size_t remaining = n;
  size_t previous_seed = 0;  // Deterministic: first row seeds round one.

  bool truncated = false;
  while (remaining >= static_cast<size_t>(config.k)) {
    if (Status status = RunContext::Check(run); !status.ok()) {
      if (clusters.empty()) return status;
      truncated = true;  // Leftover pass below absorbs unassigned rows.
      break;
    }
    MDC_FAILPOINT("clustering.cluster");
    // Seed: the unassigned row farthest from the previous seed.
    size_t seed = n;
    double best_distance = -1.0;
    for (size_t row = 0; row < n; ++row) {
      if (assigned[row]) continue;
      double distance = clusters.empty()
                            ? 0.0
                            : embedding.Distance(previous_seed, row);
      if (seed == n || distance > best_distance) {
        seed = row;
        best_distance = distance;
      }
    }
    MDC_CHECK_LT(seed, n);

    std::vector<size_t> members = {seed};
    assigned[seed] = true;
    std::vector<double> lo = embedding.coords[seed];
    std::vector<double> hi = embedding.coords[seed];
    bool aborted = false;
    while (members.size() < static_cast<size_t>(config.k)) {
      if (Status status = RunContext::Check(run); !status.ok()) {
        // A partial cluster would break k-anonymity; un-assign its rows
        // so the leftover pass folds them into completed clusters.
        for (size_t member : members) assigned[member] = false;
        if (clusters.empty()) return status;
        truncated = true;
        aborted = true;
        break;
      }
      size_t best_row = n;
      double best_spread = std::numeric_limits<double>::infinity();
      for (size_t row = 0; row < n; ++row) {
        if (assigned[row]) continue;
        double spread = SpreadWith(embedding, lo, hi, row);
        if (spread < best_spread) {
          best_spread = spread;
          best_row = row;
        }
      }
      MDC_CHECK_LT(best_row, n);
      members.push_back(best_row);
      assigned[best_row] = true;
      for (size_t d = 0; d < lo.size(); ++d) {
        lo[d] = std::min(lo[d], embedding.coords[best_row][d]);
        hi[d] = std::max(hi[d], embedding.coords[best_row][d]);
      }
    }
    if (aborted) break;
    remaining -= members.size();
    previous_seed = seed;
    clusters.push_back(std::move(members));
  }

  // Leftovers join the nearest cluster (by distance to its first member).
  for (size_t row = 0; row < n; ++row) {
    if (assigned[row]) continue;
    size_t best_cluster = 0;
    double best_distance = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < clusters.size(); ++c) {
      double distance = embedding.Distance(clusters[c][0], row);
      if (distance < best_distance) {
        best_distance = distance;
        best_cluster = c;
      }
    }
    clusters[best_cluster].push_back(row);
    assigned[row] = true;
  }

  // Release with per-cluster range labels.
  MDC_ASSIGN_OR_RETURN(Schema release_schema,
                       Generalizer::ReleaseSchema(schema, qi_columns));
  // One label per cluster and QI column, interned in that column's
  // dictionary; every other column is the original's, copied whole.
  std::vector<Dataset::Column> columns =
      original->CopyColumnsExcept(qi_columns);
  for (size_t column : qi_columns) {
    const std::vector<double> numbers =
        schema.attribute(column).type == AttributeType::kString
            ? std::vector<double>{}
            : original->Numbers(column);
    Dataset::Column& out = columns[column];
    StringInterner labels;
    out.codes.resize(n);
    for (const std::vector<size_t>& members : clusters) {
      const uint32_t code = labels.Intern(
          ClusterLabel(*original, numbers, members, column), out.dictionary);
      for (size_t row : members) out.codes[row] = code;
    }
  }
  MDC_ASSIGN_OR_RETURN(
      Dataset release,
      Dataset::FromColumns(std::move(release_schema), std::move(columns)));

  ClusteringResult result;
  result.cluster_count = clusters.size();
  result.run_stats = RunContext::Stats(run, truncated);
  result.anonymization =
      Anonymization{std::move(original),
                    std::move(release),
                    qi_columns,
                    std::vector<bool>(n, false),
                    std::nullopt,
                    "k-member-clustering"};
  result.partition =
      EquivalencePartition::FromAnonymization(result.anonymization);
  return result;
}

}  // namespace mdc
