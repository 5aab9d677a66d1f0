// Samarati's algorithm for k-minimal full-domain generalization.
//
// Binary-searches the lattice height for the minimal height at which some
// node is k-anonymous within the suppression budget (feasibility is
// monotone in height: every feasible node has a feasible successor one
// level higher). Returns every feasible node at that height — Samarati's
// "k-minimal generalizations" — and the one among them minimizing a
// caller-supplied loss.

#ifndef MDC_ANONYMIZE_SAMARATI_H_
#define MDC_ANONYMIZE_SAMARATI_H_

#include <memory>
#include <vector>

#include "anonymize/full_domain.h"

namespace mdc {

struct EncodedBundle;

struct SamaratiConfig {
  int k = 2;
  SuppressionBudget suppression;
  // Worker threads for node evaluation; 1 = one node per wave, <= 0 = one
  // per hardware thread. Results are identical for any thread count;
  // budget expiry and checkpoints land on the same node as a one-thread
  // run (step budgets exactly; deadlines at wave granularity).
  int threads = 1;
  // Prebuilt encode/translate tables for exactly this (dataset,
  // hierarchies) pair (see EncodedBundle in encoded_eval.h). Null builds
  // them fresh; results, budgets, and deterministic counters are identical
  // either way.
  std::shared_ptr<const EncodedBundle> encoded;
};

// Resumable position in the three-phase search: phase 0 verifies the
// lattice top, phase 1 binary-searches heights, phase 2 re-sweeps the
// minimal height. Within whichever sweep was interrupted, `next_node`
// indexes the deterministic NodesAtHeight order and `sweep_feasible` holds
// the feasible nodes already found in that sweep.
struct SamaratiCheckpoint final : Checkpointable {
  uint32_t phase = 0;
  int64_t lo = 0;
  int64_t hi = 0;
  int64_t feasible_height = -1;
  std::vector<LatticeNode> lowest_feasible;
  uint64_t next_node = 0;
  std::vector<LatticeNode> sweep_feasible;
  uint64_t nodes_evaluated = 0;
  bool captured = false;

  bool has_state() const override { return captured; }
  StatusOr<std::string> SaveCheckpoint() const override;
  Status ResumeFrom(std::string_view bytes) override;
};

struct SamaratiResult {
  int minimal_height = 0;
  std::vector<LatticeNode> minimal_nodes;  // All feasible at minimal height.
  LatticeNode best_node;
  NodeEvaluation best;            // Evaluation of best_node.
  size_t nodes_evaluated = 0;     // Predicate evaluations (for benches).
  RunStats run_stats;
};

// Budget expiry degrades gracefully: if the binary search has already found
// a feasible height, its nodes are returned with run_stats.truncated set
// (feasible, but possibly not height-minimal); before any feasible height
// is known the budget Status is returned. When `checkpoint` is non-null,
// budget expiry additionally captures the search position into it, and a
// checkpoint with state restarts the search at that position.
StatusOr<SamaratiResult> SamaratiAnonymize(
    std::shared_ptr<const Dataset> original, const HierarchySet& hierarchies,
    const SamaratiConfig& config, const LossFn& loss = ProxyLoss,
    RunContext* run = nullptr, SamaratiCheckpoint* checkpoint = nullptr);

}  // namespace mdc

#endif  // MDC_ANONYMIZE_SAMARATI_H_
