// Dispatched block-level primitives of the packed comparison engine.
//
// AllPairsCompare's blocked pair evaluation and the raw dominance kernels
// (core/compare_engine.h) are thin drivers over the function table
// below; scalar, AVX2, and AVX-512 variants live in
// compare_kernels_{scalar,avx2,avx512}.cc and a call site picks one via
// CompareKernelsFor(ActiveSimdLevel()).
//
// Every variant is required to be BIT-IDENTICAL to the scalar one — not
// approximately equal. How each primitive keeps that promise under
// vectorization:
//
//  - count_spread (fused strict counts + spread sums, one pass so each
//    cache line is loaded once):
//      * the two strict-inequality counts are integer sums of order-free
//        indicators, so lane order is irrelevant. Vector compares
//        produce the same per-element predicate as scalar `>` (IEEE
//        compares are exact), and popcounts of the masks sum to the same
//        totals.
//      * Σ max(d1[i]-d2[i], 0) MUST accumulate in index order (FP
//        addition does not reassociate). The vector variants compute the
//        per-element addends in parallel — vsubpd and vmaxpd are
//        IEEE-exact per lane, so each addend is bit-identical to the
//        scalar one — but feed the running sum serially, in lane = index
//        order. Zero addends are free to add OR skip, by this argument:
//        the sum starts at +0.0 and every addend is max(diff, 0.0) ∈
//        {±0.0} ∪ (0, ∞), so the accumulator is always +0.0 or positive,
//        and for such s, s + (±0.0) == s bitwise (IEEE 754: x + 0 is
//        exact, and +0.0 + -0.0 = +0.0). The vector variants exploit
//        this branchlessly: each vector's live (nonzero) addends are
//        compress-packed into a dense chunk buffer in index order, and
//        the serial chain then sums the buffer — dropping the identity
//        adds without any data-dependent branch, which would mispredict
//        on exactly the mixed data the engine sees. The chunk tail is
//        accumulated after the buffered adds, preserving index order.
//  - row_min: the running std::min keeps the accumulator on ties, i.e.
//    returns the FIRST element attaining the minimum value. For finite
//    doubles the only same-value/different-bits case is ±0.0, so the
//    vector variants take an order-free vector min (value-exact for any
//    reduction order over a total order) and, iff the result equals 0.0,
//    rescan for the first element == 0.0 to recover the scalar path's
//    first-occurrence bit pattern.
//  - weakly_dominates / strict_flags: booleans derived from order-free
//    predicates; early exit affects speed only.
//
// The hypervolume products and the P_rank pow-sum are deliberately NOT
// in this table: their running product/sum chains are order-pinned like
// the spreads but have no zero-skip identity (x·1.0 shortcuts never
// arise in real data) and P_rank is libm-pow-bound, so a vector variant
// could only reassociate — which the bit-exactness contract forbids.
// They stay in the blocked driver as scalar chains at every level.
//
// All primitives take unaligned pointers and arbitrary n (tails are
// masked or finished scalar; no variant reads past [0, n)).

#ifndef MDC_CORE_COMPARE_KERNELS_H_
#define MDC_CORE_COMPARE_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/cpu_dispatch.h"

namespace mdc {

struct CompareKernels {
  // One fused pass: gt12 += |{i : a[i] > b[i]}|, gt21 += |{i : b[i] >
  // a[i]}|, spr12 += Σ max(a[i]-b[i], 0), spr21 += Σ max(b[i]-a[i], 0),
  // the spreads in index order (see the bit-exactness argument above).
  void (*count_spread)(const double* a, const double* b, size_t n,
                       uint64_t* gt12, uint64_t* gt21, double* spr12,
                       double* spr21);
  // Running min of init and d[0..n) with first-occurrence semantics.
  double (*row_min)(const double* d, size_t n, double init);
  // false iff any a[i] < b[i].
  bool (*weakly_dominates)(const double* a, const double* b, size_t n);
  // any12 = ∃i a[i] > b[i]; any21 = ∃i b[i] > a[i]. May stop scanning
  // once both are true.
  void (*strict_flags)(const double* a, const double* b, size_t n,
                       bool* any12, bool* any21);
};

// The table for one level. Levels compiled out (non-x86 builds) alias
// the scalar table, so this is total over the enum.
const CompareKernels& CompareKernelsFor(SimdLevel level);

// Convenience: CompareKernelsFor(ActiveSimdLevel()).
const CompareKernels& ActiveCompareKernels();

// Per-variant tables, exposed so the dispatch test can drive each one
// explicitly regardless of the active level.
extern const CompareKernels kCompareKernelsScalar;
#if defined(MDC_HAVE_AVX2_KERNELS)
extern const CompareKernels kCompareKernelsAvx2;
#endif
#if defined(MDC_HAVE_AVX512_KERNELS)
extern const CompareKernels kCompareKernelsAvx512;
#endif

}  // namespace mdc

#endif  // MDC_CORE_COMPARE_KERNELS_H_
