// Rank swapping (Moore 1996 / Domingo-Ferrer & Torra 2001): values are
// exchanged between rows whose ranks are at most w = max(1, floor(p·N))
// positions apart, so released marginals are exactly the original ones
// while the row-to-value linkage is scrambled within the window.
//
// The sweep walks ranks in ascending order; an unswapped rank picks its
// partner uniformly among the unswapped ranks in (r, r + w]. One uniform
// draw is consumed per *unswapped* rank visited, which makes the stream —
// and therefore the released table — a pure function of (values, window,
// seed).
//
// Candidate counting and selection run on a Fenwick tree over the
// still-unswapped ranks, so the sweep is O(N log N) instead of the naive
// O(N·w) scan (which is quadratic for proportional windows — hours at
// N = 1e6, w = 0.1·N). The tree reproduces the scan exactly: the same
// candidate count feeds the same uniform draw, and the selected partner
// is the same (j+1)-th unswapped rank after r, so the released bytes are
// bit-identical to the reference sweep for every (values, window, seed).

#include <algorithm>

#include "anonymize/perturb/perturb.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/permutation_metrics.h"

namespace mdc {

namespace {

// Fenwick (binary indexed) tree over {0,1} flags, 1 = rank still
// unswapped. Supports prefix counts, point clears, and k-th-set-bit
// selection, all O(log n).
class FreeRankTree {
 public:
  explicit FreeRankTree(size_t n) : n_(n), tree_(n + 1, 1) {
    tree_[0] = 0;
    // O(n) bottom-up build of the all-ones tree.
    for (size_t i = 1; i <= n_; ++i) {
      const size_t parent = i + (i & (~i + 1));
      if (parent <= n_) tree_[parent] += tree_[i];
    }
    log2_ = 0;
    while ((size_t{1} << (log2_ + 1)) <= n_) ++log2_;
  }

  // Number of unswapped ranks in [0, rank] (rank is 0-based).
  size_t CountThrough(size_t rank) const {
    size_t i = rank + 1;
    size_t count = 0;
    for (; i > 0; i -= i & (~i + 1)) count += tree_[i];
    return count;
  }

  // 0-based position of the k-th unswapped rank (k is 1-based).
  size_t SelectKth(size_t k) const {
    size_t pos = 0;
    for (size_t step = size_t{1} << log2_; step > 0; step >>= 1) {
      const size_t next = pos + step;
      if (next <= n_ && tree_[next] < k) {
        pos = next;
        k -= tree_[next];
      }
    }
    return pos;  // pos is 1-based index minus one == 0-based rank.
  }

  void Clear(size_t rank) {
    for (size_t i = rank + 1; i <= n_; i += i & (~i + 1)) --tree_[i];
  }

 private:
  size_t n_;
  size_t log2_ = 0;
  std::vector<size_t> tree_;
};

}  // namespace

std::vector<double> PerturbColumnRankSwap(const std::vector<double>& values,
                                          double window, uint64_t seed) {
  const size_t n = values.size();
  std::vector<double> out(values);
  if (n < 2) return out;

  // Rank r holds the row index of the r-th smallest value, ties broken by
  // row index: the StableOrder of core/permutation_metrics.h, the order
  // RankVector ranks by.
  const std::vector<uint32_t> row_of_rank = StableOrder(values);

  const size_t w = std::max<size_t>(
      1, static_cast<size_t>(window * static_cast<double>(n)));
  Rng rng(seed);
  std::vector<bool> swapped(n, false);
  FreeRankTree free_ranks(n);
  for (size_t r = 0; r < n; ++r) {
    if (swapped[r]) continue;
    // Candidate partners: unswapped ranks in (r, min(r + w, n - 1)].
    // `through_r` includes r itself (still unswapped here) and any
    // retired tail ranks before it; both cancel in the difference and
    // offset SelectKth consistently, so candidates = the unswapped ranks
    // strictly after r, exactly as the linear scan enumerated them.
    const size_t hi = std::min(n - 1, r + w);
    const size_t through_r = free_ranks.CountThrough(r);
    const size_t candidates = free_ranks.CountThrough(hi) - through_r;
    if (candidates == 0) {
      swapped[r] = true;  // Tail rank with no free partner stays put.
      continue;
    }
    const size_t pick = rng.NextBelow(candidates);
    const size_t partner = free_ranks.SelectKth(through_r + pick + 1);
    MDC_CHECK(partner > r && partner <= hi && !swapped[partner]);
    std::swap(out[row_of_rank[r]], out[row_of_rank[partner]]);
    swapped[r] = true;
    swapped[partner] = true;
    free_ranks.Clear(r);
    free_ranks.Clear(partner);
  }
  return out;
}

}  // namespace mdc
