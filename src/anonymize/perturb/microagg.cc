// Univariate MDAV-style microaggregation (Domingo-Ferrer & Mateo-Sanz
// 2002): while at least 3k values remain, the minimum and the maximum each
// absorb their k-1 nearest values (for sorted univariate data: the k
// smallest and the k largest remaining); with 2k..3k-1 left the minimum
// takes one more group of k; the final k..2k-1 values form one group.
// Each value is released as its group mean, so every released value is
// shared by >= k rows (permutation_laws_test proves the floor) — the
// k-anonymity analogue for numeric microdata. Deterministic: no RNG; rows
// are ordered by StableOrder (core/permutation_metrics.h), ties by row
// index.

#include "anonymize/perturb/perturb.h"
#include "core/permutation_metrics.h"

namespace mdc {

std::vector<double> PerturbColumnMicroaggregate(
    const std::vector<double>& values, int k) {
  const size_t n = values.size();
  std::vector<double> out(values);
  if (n == 0 || k <= 1) return out;

  const std::vector<uint32_t> order = StableOrder(values);
  const size_t group = static_cast<size_t>(k);
  size_t lo = 0;      // First unassigned sorted position.
  size_t hi = n;      // One past the last unassigned sorted position.
  auto emit = [&](size_t begin, size_t end) {  // [begin, end) sorted slice.
    double mean = 0.0;
    for (size_t i = begin; i < end; ++i) mean += values[order[i]];
    mean /= static_cast<double>(end - begin);
    for (size_t i = begin; i < end; ++i) out[order[i]] = mean;
  };
  while (hi - lo >= 2 * group) {
    if (hi - lo >= 3 * group) {
      emit(lo, lo + group);  // Group anchored at the remaining minimum.
      emit(hi - group, hi);  // Group anchored at the remaining maximum.
      lo += group;
      hi -= group;
    } else {
      // 2k..3k-1 remaining: one group at the minimum, so the remainder
      // lands in [k, 2k-1] and never falls below the group-size floor.
      emit(lo, lo + group);
      lo += group;
    }
  }
  if (hi > lo) emit(lo, hi);  // k..2k-1 values (or all n when n < 2k).
  return out;
}

}  // namespace mdc
