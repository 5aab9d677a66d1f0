// High-throughput pairwise comparison engine over packed property
// matrices — the one comparison path of production code (the two-release
// report, Pareto fronts, permutation-model rankings).
//
// The scalar layer (core/{dominance,quality_index,comparator}.*) computes
// each Table-4 relation and each §5 index with its own pass over
// PropertyVector::operator[], so comparing r properties costs O(r²·N) of
// bounds-checked, virtually-dispatched element work. It stays as the
// paper-facing API and as the oracle the tests compare against. The
// packed engine streams the two rows once per pair in cache-sized blocks
// and derives every dominance relation and every index from a single
// fused pass (the count_spread kernel of core/compare_kernels.h).
//
// Bit-exactness contract: packed results are required to equal the scalar
// results EXACTLY (double ==), not approximately. Integer quantities
// (coverage/strict counts, dominance flags) are order-free; floating-point
// accumulations (spread sums, hypervolume products, rank distances) are
// carried across blocks in the same index order 0..N-1 the scalar code
// uses, and the build does not enable fast-math, so the compiler preserves
// that order. comparison_oracle_test.cc enforces the contract
// differentially.
//
// Determinism contract (the lattice searches' wave protocol):
// AllPairsCompare admits pairs serially in row-major (i, j) order —
// charging RunContext steps so a budget expires at the same pair for
// every thread count — evaluates admitted waves in parallel into
// per-pair slots, and commits results and `cmp.*` metrics counters
// serially in admission order. Results and DeterministicCountersText()
// are byte-identical for any thread count, including under step-budget
// truncation.

#ifndef MDC_CORE_COMPARE_ENGINE_H_
#define MDC_CORE_COMPARE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/comparator.h"
#include "core/dominance.h"
#include "core/property_matrix.h"

namespace mdc {

// Default kernel block: 1024 doubles per row = 2 × 8 KiB resident per
// pair, comfortably inside a 32–48 KiB L1 while long enough to amortize
// loop overhead. Tests override it to exercise N % block != 0 remainders.
inline constexpr size_t kCompareBlockSize = 1024;

// ---------------------------------------------------------------------------
// Raw kernels over contiguous rows. Semantics match core/dominance.h and
// core/quality_index.h exactly; see the bit-exactness contract above.

bool PackedWeaklyDominates(const double* d1, const double* d2, size_t n);
bool PackedStronglyDominates(const double* d1, const double* d2, size_t n);
bool PackedNonDominated(const double* d1, const double* d2, size_t n);
DominanceRelation PackedCompareDominance(const double* d1, const double* d2,
                                         size_t n);

// P_rank: Lp distance to the ideal, identical to
// PropertyVector::DistanceTo (same per-element std::pow chain).
double PackedRankIndex(const double* d, const double* d_max, size_t n,
                       double p = 2.0);

// Scalar-outcome helper with the exact tie/epsilon logic of the
// comparator battery (comparator.cc FromScalars).
ComparatorOutcome OutcomeFromScalars(double first, double second,
                                     double epsilon = 0.0);

// ---------------------------------------------------------------------------
// All-pairs driver.

struct AllPairsOptions {
  // Total comparison threads (workers + caller); <= 0 means hardware.
  int threads = 1;
  // Compute P_hv. Requires strictly positive matrix entries (clean
  // InvalidArgument otherwise).
  bool include_hypervolume = false;
  // Rank ideal for P_rank (p = 2); empty skips it. Must match the matrix
  // width.
  PropertyVector d_max;
  // Kernel block size; kept configurable so tests can force remainder
  // blocks. Must be > 0.
  size_t block = kCompareBlockSize;
};

// One ordered pair (first < second, row-major order).
struct PairComparison {
  size_t first = 0;
  size_t second = 0;
  DominanceRelation relation = DominanceRelation::kEqual;
  double cov12 = 0.0;  // P_cov(first, second)
  double cov21 = 0.0;
  uint64_t binary12 = 0;  // P_binary: strictly-better counts.
  uint64_t binary21 = 0;
  double spr12 = 0.0;  // P_spr(first, second)
  double spr21 = 0.0;
  double min1 = 0.0;  // Scalar min index of each row.
  double min2 = 0.0;
  double hv12 = 0.0;  // Valid iff options.include_hypervolume.
  double hv21 = 0.0;
  double rank1 = 0.0;  // Valid iff options.d_max was set.
  double rank2 = 0.0;
};

struct AllPairsResult {
  size_t rows = 0;
  size_t cols = 0;
  // All rows*(rows-1)/2 pairs in row-major (i, j) order, i < j.
  std::vector<PairComparison> pairs;
  // Per-row P_rank when options.d_max was set (else empty).
  std::vector<double> ranks;

  const PairComparison& Pair(size_t i, size_t j) const;
};

// Compares every unordered row pair of `matrix`. Returns the budget
// Status when `run` expires mid-sweep (committed `cmp.*` counters remain
// deterministic: admission order fixes the truncation point).
StatusOr<AllPairsResult> AllPairsCompare(const PropertyMatrix& matrix,
                                         const AllPairsOptions& options = {},
                                         RunContext* run = nullptr);

// ---------------------------------------------------------------------------
// Set-level dominance (Table 4 over aligned property sets) through the
// packed kernels, on each vector's own storage (no repacking) — used by
// the Pareto-front extraction. The sets must agree in arity and in the
// size of every aligned vector (MDC_CHECK).

bool PackedSetWeaklyDominates(const PropertySet& s1, const PropertySet& s2);
bool PackedSetStronglyDominates(const PropertySet& s1, const PropertySet& s2);

}  // namespace mdc

#endif  // MDC_CORE_COMPARE_ENGINE_H_
