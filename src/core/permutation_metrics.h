// The permutation model of anonymization (Ruiz, arXiv:1701.08419;
// Domingo-Ferrer et al., arXiv:2010.03502): any anonymization of a numeric
// attribute is functionally equivalent to a permutation of the original
// values plus (rank-preserving) small noise. Extracting the implicit
// permutation per attribute yields *universal, method-agnostic* per-tuple
// measures:
//
//   rank distance d_i = |rank_Y(y_i) - rank_X(x_i)|  — how far tuple i's
//   value moved in rank space.
//
// A large d_i means an attacker linking record i by rank lands far from
// the truth (protection) and equally that the released value carries
// little of the original's order information (loss). Normalized by the
// maximum displacement N-1 and averaged over attributes, the two Def.-1
// property vectors below are exactly what the packed comparison engine
// consumes, so Table-4 dominance, P_rank/P_cov/P_spr/P_hv, Pareto fronts,
// and the Theorem-1 witness search all work unchanged on perturbative
// output — and on generalization output via reverse mapping
// (NumericReleaseColumn), letting the framework rank mechanisms across
// backend families.
//
// Determinism contract: attributes are admitted serially (charging
// RunContext steps in attribute order), ranked wave-parallel into
// per-attribute slots, and committed — results and `perm.*` counters — in
// admission order by the wave driver (common/waves.h), so outputs are
// byte-identical for any thread count.
// Ranks break ties by row index (StableOrder below), so the model is a
// pure function of the input columns.

#ifndef MDC_CORE_PERMUTATION_METRICS_H_
#define MDC_CORE_PERMUTATION_METRICS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "anonymize/equivalence.h"
#include "anonymize/generalizer.h"
#include "common/run_context.h"
#include "common/status.h"
#include "core/property_vector.h"

namespace mdc {

// The row indices of `values` in ascending value order, ties in row
// order: exactly the permutation std::stable_sort gives with `values[a] <
// values[b]` as the comparator, computed in linear passes. Each value is
// mapped to a 64-bit key whose unsigned order is the order of `<` (−0.0
// folded into +0.0 first, since `<` treats them as equal), and RadixOrder
// (common/radix_order.h), stable in every pass, keeps equal keys in row
// order. Precondition: every value is finite (the callers validate; a NaN
// would get a position `<` cannot give it) and N < 2^32 (MDC_CHECKed).
// Rank swapping and microaggregation order their rows through it too.
std::vector<uint32_t> StableOrder(std::span<const double> values);

// rank[i] = position of row i in StableOrder(values), so ties break by
// row index. The result is a permutation of 0..N-1. Values must be finite.
std::vector<uint32_t> RankVector(const std::vector<double>& values);

// The implicit permutation sigma of the release: sigma[i] = j means the
// released value of row i occupies the rank slot that original row j's
// value held — i.e. an attacker matching release ranks against original
// ranks links row i to row j. sigma is the identity iff the anonymization
// preserved every rank. Sizes must match and be non-zero; entries must be
// finite.
StatusOr<std::vector<uint32_t>> ImplicitPermutation(
    const std::vector<double>& original,
    const std::vector<double>& anonymized);

// One attribute's permutation model.
struct PermutationAttributeModel {
  std::string name;
  std::vector<uint32_t> original_ranks;    // rank_X
  std::vector<uint32_t> anonymized_ranks;  // rank_Y
  std::vector<uint32_t> permutation;       // sigma (see above)
  std::vector<double> rank_distance;       // |rank_Y[i] - rank_X[i]|
  double max_distance = 1.0;               // max(N - 1, 1)
  double footrule = 0.0;                   // Σ_i rank_distance[i]
  double mean_normalized_distance = 0.0;   // footrule / (N · max_distance)
};

struct PermutationMetricsOptions {
  // Worker threads for per-attribute ranking; 1 = serial, <= 0 = one per
  // hardware thread. Results are identical for any value.
  int threads = 1;
};

// The full model plus the two Def.-1 property vectors (higher is better):
//   privacy[i] = mean over attributes of d_i / (N-1)   — displacement IS
//                protection under the permutation paradigm;
//   utility[i] = 1 - privacy[i]                        — displacement IS
//                information loss, oriented higher-is-better.
struct PermutationModel {
  size_t rows = 0;
  std::vector<PermutationAttributeModel> attributes;
  PropertyVector privacy;
  PropertyVector utility;
};

// The original half of the models of several releases of one dataset:
// row_of_rank[a] is StableOrder of original column a, empty until a model
// build needs it. A build ranks the columns whose slot is empty and reads
// the others, so the models of every release of one dataset rank each
// original column once, and models that are never built rank nothing.
// Share one only between builds over the same original columns (the
// slot count and sizes are MDC_CHECKed).
struct OriginalOrders {
  std::vector<std::vector<uint32_t>> row_of_rank;
};

// Builds the model from aligned numeric columns (original_columns[a] and
// anonymized_columns[a] are the same attribute before/after). Rejects
// empty input, size mismatches, and non-finite values with a clean
// Status. Budget expiry returns the budget Status (a partial model would
// mislabel the missing attributes as zero-displacement). With
// `originals`, the original columns' orders come from and go to it.
StatusOr<PermutationModel> BuildPermutationModel(
    const std::vector<std::vector<double>>& original_columns,
    const std::vector<std::vector<double>>& anonymized_columns,
    const std::vector<std::string>& names,
    const PermutationMetricsOptions& options = {}, RunContext* run = nullptr,
    OriginalOrders* originals = nullptr);

// Reverse-mapped numeric view of one released column (the permutation
// paradigm's bridge across backend families):
//  - numeric release cells (perturbative mechanisms) are returned as-is;
//  - string label cells (generalization releases) are mapped to the mean
//    of the ORIGINAL values in the row's equivalence class, which requires
//    `partition` (InvalidArgument when absent).
// `column` must be numeric in the ORIGINAL schema.
StatusOr<std::vector<double>> NumericReleaseColumn(
    const Anonymization& anonymization,
    const EquivalencePartition* partition, size_t column);

// Convenience: the model of `anonymization` over every numeric
// quasi-identifier column of the original schema (reverse-mapping
// generalized columns through `partition`). InvalidArgument when no
// numeric QI column exists.
StatusOr<PermutationModel> PermutationModelFor(
    const Anonymization& anonymization,
    const EquivalencePartition* partition,
    const PermutationMetricsOptions& options = {}, RunContext* run = nullptr,
    OriginalOrders* originals = nullptr);

// Aligned text table of per-attribute footrule / mean normalized
// displacement plus the per-tuple vector summary — the CLI and the repro
// driver print exactly this.
std::string PermutationModelSummary(const PermutationModel& model);

}  // namespace mdc

#endif  // MDC_CORE_PERMUTATION_METRICS_H_
