#include "core/compare_engine.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/compare_kernels.h"

namespace mdc {
namespace {

// A pair's strict counts and spread sums, from one fused blocked pass.
// Both rows are finite (the PropertyMatrix contract), so the weak counts
// of P_cov follow from the strict ones by totality: d1[i] >= d2[i] ⟺
// ¬(d2[i] > d1[i]), which halves the count work per element.
struct PairwiseStats {
  uint64_t gt12 = 0;  // |{i : d1[i] > d2[i]}|  (P_binary, 1 vs 2)
  uint64_t gt21 = 0;
  double spr12 = 0.0;  // Σ max(d1[i] - d2[i], 0)  (P_spr, 1 vs 2)
  double spr21 = 0.0;
};

DominanceRelation RelationFromFlags(bool first_better, bool second_better) {
  if (first_better && second_better) return DominanceRelation::kIncomparable;
  if (first_better) return DominanceRelation::kFirstDominates;
  if (second_better) return DominanceRelation::kSecondDominates;
  return DominanceRelation::kEqual;
}

// P_cov(d1, d2) when `forward`, else P_cov(d2, d1).
double CoverageFromStats(const PairwiseStats& stats, size_t n, bool forward) {
  return static_cast<double>(n - (forward ? stats.gt21 : stats.gt12)) /
         static_cast<double>(n);
}

// Increments the deterministic cmp.* counters for one committed pair
// comparison. Called from the serial commit only (the counters'
// thread-count invariance depends on it).
void CommitComparisonMetrics(DominanceRelation relation, size_t cols) {
  MDC_METRIC_INC("cmp.pairs_compared");
  MDC_METRIC_ADD("cmp.elements", static_cast<uint64_t>(cols));
  switch (relation) {
    case DominanceRelation::kEqual:
      MDC_METRIC_INC("cmp.relation.equal");
      break;
    case DominanceRelation::kFirstDominates:
      MDC_METRIC_INC("cmp.relation.first");
      break;
    case DominanceRelation::kSecondDominates:
      MDC_METRIC_INC("cmp.relation.second");
      break;
    case DominanceRelation::kIncomparable:
      MDC_METRIC_INC("cmp.relation.incomparable");
      break;
  }
}

// One-vs-many evaluation of a run of pairs (i, j_0..j_{count-1}) sharing
// their first row. Blocks are the OUTER loop and partners the inner one,
// so each block of row i is loaded once per `count` partner blocks — at
// N=1e6 (rows far beyond LLC) that cuts DRAM traffic per pair-element
// from 16 bytes toward 8·(1+count)/count.
//
// Bit-exactness vs the scalar code: every per-partner accumulator
// (counts, spreads, hv own/shared products) advances across blocks in
// index order 0..N-1, and the own1 product depends only on row i, so
// hoisting it out of the partner loop keeps its chain identical for
// every pair.
void EvaluateRowGroup(const PropertyMatrix& matrix, size_t i,
                      const std::pair<size_t, size_t>* pairs, size_t count,
                      const AllPairsOptions& options,
                      const std::vector<double>& row_mins,
                      PairComparison* out) {
  const CompareKernels& kernels = ActiveCompareKernels();
  const size_t n = matrix.cols();
  const double* d1 = matrix.row(i);
  const bool with_hv = options.include_hypervolume;
  std::vector<PairwiseStats> stats(count);
  double own1 = 1.0;
  std::vector<double> own2;
  std::vector<double> shared;
  if (with_hv) {
    own2.assign(count, 1.0);
    shared.assign(count, 1.0);
  }
  for (size_t start = 0; start < n; start += options.block) {
    const size_t end = std::min(n, start + options.block);
    const size_t len = end - start;
    if (with_hv) {
      for (size_t c = start; c < end; ++c) {
        MDC_CHECK_MSG(d1[c] > 0.0,
                      "hypervolume indices require strictly positive entries");
        own1 *= d1[c];
      }
    }
    for (size_t s = 0; s < count; ++s) {
      const double* d2 = matrix.row(pairs[s].second);
      kernels.count_spread(d1 + start, d2 + start, len, &stats[s].gt12,
                           &stats[s].gt21, &stats[s].spr12, &stats[s].spr21);
      if (with_hv) {
        for (size_t c = start; c < end; ++c) {
          MDC_CHECK_MSG(
              d2[c] > 0.0,
              "hypervolume indices require strictly positive entries");
          own2[s] *= d2[c];
          shared[s] *= std::min(d1[c], d2[c]);
        }
      }
    }
  }
  for (size_t s = 0; s < count; ++s) {
    const auto [first, second] = pairs[s];
    PairComparison& pair = out[s];
    pair.first = first;
    pair.second = second;
    pair.relation = RelationFromFlags(stats[s].gt12 > 0, stats[s].gt21 > 0);
    pair.cov12 = CoverageFromStats(stats[s], n, /*forward=*/true);
    pair.cov21 = CoverageFromStats(stats[s], n, /*forward=*/false);
    pair.binary12 = stats[s].gt12;
    pair.binary21 = stats[s].gt21;
    pair.spr12 = stats[s].spr12;
    pair.spr21 = stats[s].spr21;
    // Minima were hoisted to one pass per row (they depend on a single
    // row), so the group kernel skips its min sweep.
    pair.min1 = row_mins[first];
    pair.min2 = row_mins[second];
    if (with_hv) {
      pair.hv12 = own1 - shared[s];
      pair.hv21 = own2[s] - shared[s];
    }
  }
}

Status RequirePositive(const PropertyMatrix& matrix) {
  for (size_t r = 0; r < matrix.rows(); ++r) {
    const double* values = matrix.row(r);
    for (size_t c = 0; c < matrix.cols(); ++c) {
      if (!(values[c] > 0.0)) {
        return Status::InvalidArgument(
            "hypervolume indices require strictly positive entries "
            "(property '" +
            matrix.name(r) + "', position " + std::to_string(c) + ")");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

bool PackedWeaklyDominates(const double* d1, const double* d2, size_t n) {
  return ActiveCompareKernels().weakly_dominates(d1, d2, n);
}

bool PackedStronglyDominates(const double* d1, const double* d2, size_t n) {
  const CompareKernels& kernels = ActiveCompareKernels();
  if (!kernels.weakly_dominates(d1, d2, n)) return false;
  bool first_better = false;
  bool second_better = false;
  kernels.strict_flags(d1, d2, n, &first_better, &second_better);
  return first_better;
}

bool PackedNonDominated(const double* d1, const double* d2, size_t n) {
  bool first_better = false;
  bool second_better = false;
  ActiveCompareKernels().strict_flags(d1, d2, n, &first_better,
                                      &second_better);
  return first_better && second_better;
}

DominanceRelation PackedCompareDominance(const double* d1, const double* d2,
                                         size_t n) {
  bool first_better = false;
  bool second_better = false;
  ActiveCompareKernels().strict_flags(d1, d2, n, &first_better,
                                      &second_better);
  return RelationFromFlags(first_better, second_better);
}

double PackedRankIndex(const double* d, const double* d_max, size_t n,
                       double p) {
  MDC_CHECK_GE(p, 1.0);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += std::pow(std::abs(d[i] - d_max[i]), p);
  }
  return std::pow(sum, 1.0 / p);
}

ComparatorOutcome OutcomeFromScalars(double first, double second,
                                     double epsilon) {
  if (first > second + epsilon) return ComparatorOutcome::kFirstBetter;
  if (second > first + epsilon) return ComparatorOutcome::kSecondBetter;
  return ComparatorOutcome::kEquivalent;
}

const PairComparison& AllPairsResult::Pair(size_t i, size_t j) const {
  MDC_CHECK_LT(i, j);
  MDC_CHECK_LT(j, rows);
  // Row-major pair order: pairs (i, *) start after all pairs (i', *) with
  // i' < i, i.e. after i*rows - i*(i+1)/2 entries.
  const size_t offset = i * rows - i * (i + 1) / 2 + (j - i - 1);
  MDC_CHECK_LT(offset, pairs.size());
  return pairs[offset];
}

StatusOr<AllPairsResult> AllPairsCompare(const PropertyMatrix& matrix,
                                         const AllPairsOptions& options,
                                         RunContext* run) {
  if (matrix.empty()) {
    return Status::InvalidArgument("empty property matrix");
  }
  if (options.block == 0) {
    return Status::InvalidArgument("block size must be positive");
  }
  const bool with_rank = !options.d_max.empty();
  if (with_rank && options.d_max.size() != matrix.cols()) {
    return Status::InvalidArgument("rank ideal size does not match matrix");
  }
  if (options.include_hypervolume) {
    MDC_RETURN_IF_ERROR(RequirePositive(matrix));
  }
  MDC_METRIC_INC("cmp.runs");

  // One min pass per row instead of two per pair: minima are unary, so
  // this turns O(r²·N) min work into O(r·N). Not charged to `run`: the
  // budget counts rank rows and pairs only.
  std::vector<double> row_mins;
  row_mins.reserve(matrix.rows());
  const CompareKernels& kernels = ActiveCompareKernels();
  for (size_t r = 0; r < matrix.rows(); ++r) {
    const double* d = matrix.row(r);
    row_mins.push_back(kernels.row_min(d, matrix.cols(), d[0]));
  }

  AllPairsResult result;
  result.rows = matrix.rows();
  result.cols = matrix.cols();

  // Per-row ranks first, in row order (unary; cheap next to the pairs).
  if (with_rank) {
    const double* ideal = options.d_max.values().data();
    result.ranks.reserve(matrix.rows());
    for (size_t r = 0; r < matrix.rows(); ++r) {
      MDC_RETURN_IF_ERROR(RunContext::Check(run));
      result.ranks.push_back(
          PackedRankIndex(matrix.row(r), ideal, matrix.cols()));
      MDC_METRIC_INC("cmp.rank_rows");
    }
  }

  std::vector<std::pair<size_t, size_t>> index_of_pair;
  index_of_pair.reserve(matrix.rows() * (matrix.rows() - 1) / 2);
  for (size_t i = 0; i < matrix.rows(); ++i) {
    for (size_t j = i + 1; j < matrix.rows(); ++j) {
      index_of_pair.emplace_back(i, j);
    }
  }
  result.pairs.reserve(index_of_pair.size());

  ThreadPool pool(ThreadPool::ResolveThreadCount(options.threads));
  // Waves are sized for grouped evaluation: enough pairs that runs
  // sharing a first row amortize its block loads, capped groups so one
  // long run cannot serialize a multi-threaded wave. Wave/group sizing
  // affects scheduling only — per-pair results are pure and the commit
  // below replays admission order, so every choice here is
  // thread-count-invariant.
  const size_t threads = static_cast<size_t>(pool.thread_count());
  const size_t wave_size = std::max<size_t>(32, threads * 32);
  const size_t group_cap = threads == 1 ? 32 : 8;

  size_t next = 0;
  Status admit = Status::Ok();
  std::vector<PairComparison> slots;
  std::vector<std::pair<size_t, size_t>> groups;  // (wave offset, count)
  while (next < index_of_pair.size()) {
    // Serial admission: budget charges replay in pair order, so a step
    // budget truncates at the identical pair for every thread count.
    const size_t begin = next;
    while (next < index_of_pair.size() && next - begin < wave_size) {
      admit = RunContext::Check(run);
      if (!admit.ok()) break;
      ++next;
    }
    const size_t count = next - begin;
    if (count == 0) break;
    slots.assign(count, PairComparison{});
    // Runs of pairs sharing a first row evaluate one-vs-many.
    groups.clear();
    size_t lo = 0;
    while (lo < count) {
      size_t hi = lo + 1;
      while (hi < count && hi - lo < group_cap &&
             index_of_pair[begin + hi].first ==
                 index_of_pair[begin + lo].first) {
        ++hi;
      }
      groups.emplace_back(lo, hi - lo);
      lo = hi;
    }
    pool.ParallelFor(groups.size(), [&](size_t g) {
      const auto [offset, size] = groups[g];
      EvaluateRowGroup(matrix, index_of_pair[begin + offset].first,
                       index_of_pair.data() + begin + offset, size, options,
                       row_mins, slots.data() + offset);
    });
    // In-order commit: results append and counters increment in admission
    // order regardless of evaluation schedule.
    for (size_t s = 0; s < count; ++s) {
      if (with_rank) {
        slots[s].rank1 = result.ranks[slots[s].first];
        slots[s].rank2 = result.ranks[slots[s].second];
      }
      CommitComparisonMetrics(slots[s].relation, matrix.cols());
      result.pairs.push_back(slots[s]);
    }
    if (!admit.ok()) break;
  }
  MDC_RETURN_IF_ERROR(admit);
  return result;
}

bool PackedSetWeaklyDominates(const PropertySet& s1, const PropertySet& s2) {
  MDC_CHECK_EQ(s1.size(), s2.size());
  for (size_t p = 0; p < s1.size(); ++p) {
    MDC_CHECK_EQ(s1[p].size(), s2[p].size());
    if (!PackedWeaklyDominates(s1[p].values().data(), s2[p].values().data(),
                               s1[p].size())) {
      return false;
    }
  }
  return true;
}

bool PackedSetStronglyDominates(const PropertySet& s1,
                                const PropertySet& s2) {
  if (!PackedSetWeaklyDominates(s1, s2)) return false;
  for (size_t p = 0; p < s1.size(); ++p) {
    if (PackedStronglyDominates(s1[p].values().data(), s2[p].values().data(),
                                s1[p].size())) {
      return true;
    }
  }
  return false;
}

}  // namespace mdc
