// Execution control for long-running anonymization work.
//
// The lattice searches (Incognito, Samarati, optimal/Pareto) are worst-case
// exponential in the number of quasi-identifiers; a serving stack cannot let
// them run unbounded. A RunContext carries the budgets of one logical run —
// a wall-clock deadline, a work-step budget, best-effort memory accounting,
// and a cooperative cancellation token — and every algorithm in anonymize/
// checks it at loop granularity via Check(). When a budget expires the
// algorithm either degrades to its best-so-far result (annotating the
// result's RunStats with truncated = true) or returns a clean Status with
// one of the budget codes (kDeadlineExceeded, kResourceExhausted,
// kCancelled). Never a hang, never a crash.
//
// Passing a null RunContext* means "unbounded": Check(nullptr) is free, so
// callers that do not care about budgets pay nothing.

#ifndef MDC_COMMON_RUN_CONTEXT_H_
#define MDC_COMMON_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/status.h"

namespace mdc {

// Thread-safe cancellation flag shared between the requesting thread and
// the working thread. Copies share the same underlying flag.
class CancellationToken {
 public:
  CancellationToken() : cancelled_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { cancelled_->store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> cancelled_;
};

// What a run actually consumed. Attached to algorithm results so callers
// can tell a complete answer from a truncated one.
struct RunStats {
  uint64_t steps = 0;        // Budget checkpoints passed (loop iterations).
  double elapsed_ms = 0.0;   // Wall-clock from RunContext creation.
  uint64_t memory_bytes = 0; // Best-effort charged allocations.
  bool truncated = false;    // True when a budget expired mid-run and the
                             // result is best-so-far, not the full answer.

  // "steps=123 elapsed_ms=4.5 truncated=false".
  std::string ToString() const;
};

// Budgets for one run. Not thread-safe except for cancellation (use one
// RunContext per run; cancel from other threads through the token).
class RunContext {
 public:
  // Default-constructed context is unbounded: Check() only counts steps.
  RunContext();

  // Fluent budget setters; call before the run starts.
  RunContext& set_deadline_ms(int64_t ms);     // Relative to now.
  RunContext& set_max_steps(uint64_t steps);
  RunContext& set_max_memory_bytes(uint64_t bytes);
  RunContext& set_cancellation(CancellationToken token);

  const CancellationToken& cancellation() const { return cancel_; }

  // True when a deadline, step or memory budget is set: a bounded run may
  // truncate its result.
  bool bounded() const {
    return deadline_.has_value() || max_steps_.has_value() ||
           max_memory_bytes_.has_value();
  }

  // Cooperative budget checkpoint, called once per loop iteration (node
  // evaluation, split, cluster, ...). Charges `steps` work-steps, then
  // reports the first exhausted budget:
  //   kCancelled         — the token was cancelled,
  //   kDeadlineExceeded  — the wall-clock deadline passed,
  //   kResourceExhausted — the step or memory budget ran out.
  // Budget errors are sticky: once non-OK, every later Check() fails too.
  Status Check(uint64_t steps = 1);

  // Best-effort memory accounting: algorithms charge their dominant
  // allocations (lattice tables, caches). Exceeding the budget makes the
  // next Check() return kResourceExhausted.
  void ChargeMemory(uint64_t bytes);
  void ReleaseMemory(uint64_t bytes);

  uint64_t steps() const { return steps_; }
  double elapsed_ms() const;
  uint64_t memory_bytes() const { return memory_bytes_; }

  // The sticky budget error, OK while every Check() has passed. Lets
  // callers that aggregate several runs report whether any budget fired
  // without spending a step on another Check().
  const Status& exhausted() const { return exhausted_; }

  // Snapshot of consumption so far; `truncated` is recorded verbatim.
  RunStats Stats(bool truncated = false) const;

  // Null-tolerant helpers so algorithms can take `RunContext* run =
  // nullptr` and stay zero-cost when unbounded.
  static Status Check(RunContext* run, uint64_t steps = 1) {
    return run == nullptr ? Status::Ok() : run->Check(steps);
  }
  static RunStats Stats(const RunContext* run, bool truncated = false) {
    return run == nullptr ? RunStats{0, 0.0, 0, truncated}
                          : run->Stats(truncated);
  }
  static void ChargeMemory(RunContext* run, uint64_t bytes) {
    if (run != nullptr) run->ChargeMemory(bytes);
  }

 private:
  std::chrono::steady_clock::time_point start_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::optional<uint64_t> max_steps_;
  std::optional<uint64_t> max_memory_bytes_;
  CancellationToken cancel_;
  uint64_t steps_ = 0;
  uint64_t memory_bytes_ = 0;
  Status exhausted_;  // Sticky first budget error.
};

}  // namespace mdc

#endif  // MDC_COMMON_RUN_CONTEXT_H_
