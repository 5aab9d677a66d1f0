// The wave driver: one admit/evaluate/commit protocol for every budgeted
// sweep (Samarati, optimal, Incognito and Pareto lattice sweeps, the
// perturbation column sweep, the permutation-model attribute sweep).
//
// RunWaves walks items [position, end) in index order:
//
//   admit(i)        -> StatusOr<WaveAdmit>  calling thread, index order
//   work(i)         -> Slot                 pool workers, any order
//   commit(i, slot) -> Status               calling thread, index order
//
// `admit` charges budgets, fires failpoints and resolves prunes. It
// returns kRun (the item takes a slot in the current wave), kSkip (the
// item is finished at admission and takes no slot) or an error. `work`
// must be thread-safe across items and must not touch a RunContext.
// `commit` folds the item's slot into the sweep state.
//
// A wave admits items until it holds one item at one thread, or four per
// thread otherwise, then runs them on the pool and commits them. The
// driver stops at the first admission or commit error. Items admitted
// before an admission error are committed first, so commits, the returned
// Status and the final position are those of a serial admit-work-commit
// loop for any thread count; only admission may run up to one wave ahead
// of the commits. `position` is left at the first unfinished item (the
// failed one on error, `end` on success) for the caller's checkpoint.
//
// Three loops stay outside the driver. AllPairsCompare
// (core/compare_engine.cc) evaluates groups of pairs that share a row.
// Pareto front extraction (ExtractFront in core/pareto.cc) charges every
// candidate up front, then flags the dominated ones in one parallel pass
// with nothing to commit item by item. The stochastic search's
// speculative walk evaluates neighbours before their admission is
// replayed and discards what the walk does not reach.

#ifndef MDC_COMMON_WAVES_H_
#define MDC_COMMON_WAVES_H_

#include <cstddef>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"

namespace mdc {

enum class WaveAdmit { kRun, kSkip };

template <typename AdmitFn, typename WorkFn, typename CommitFn>
Status RunWaves(ThreadPool& pool, size_t& position, size_t end,
                AdmitFn&& admit, WorkFn&& work, CommitFn&& commit) {
  using Slot = std::invoke_result_t<WorkFn&, size_t>;
  const size_t threads = static_cast<size_t>(pool.thread_count());
  const size_t wave = threads <= 1 ? 1 : threads * 4;
  std::vector<size_t> admitted;
  std::vector<std::optional<Slot>> slots;
  while (position < end) {
    Status admit_error;
    admitted.clear();
    size_t next = position;
    while (next < end && admitted.size() < wave) {
      StatusOr<WaveAdmit> verdict = admit(next);
      if (!verdict.ok()) {
        admit_error = verdict.status();
        break;
      }
      if (*verdict == WaveAdmit::kRun) admitted.push_back(next);
      ++next;
    }
    slots.resize(admitted.size());
    pool.ParallelFor(admitted.size(),
                     [&](size_t j) { slots[j].emplace(work(admitted[j])); });
    for (size_t j = 0; j < admitted.size(); ++j) {
      Status status = commit(admitted[j], *slots[j]);
      if (!status.ok()) {
        position = admitted[j];
        return status;
      }
    }
    slots.clear();
    position = next;
    if (!admit_error.ok()) return admit_error;
  }
  return Status::Ok();
}

}  // namespace mdc

#endif  // MDC_COMMON_WAVES_H_
