// Optimal full-domain lattice search with monotonicity pruning.
//
// Walks the generalization lattice bottom-up by height. A node whose direct
// predecessor already satisfies the privacy predicate is satisfying by
// monotonicity and is never re-evaluated; the *minimal* satisfying nodes
// (no satisfying predecessor) are collected and the loss-minimizing one is
// returned. With the k-anonymity predicate this is the guaranteed-optimal
// search in the spirit of Incognito / Bayardo–Agrawal restricted to
// full-domain generalization; the predicate is pluggable so distinct
// ℓ-diversity, entropy ℓ-diversity and t-closeness (all monotone under
// full-domain generalization) can be searched the same way.

#ifndef MDC_ANONYMIZE_OPTIMAL_LATTICE_H_
#define MDC_ANONYMIZE_OPTIMAL_LATTICE_H_

#include <functional>
#include <memory>
#include <vector>

#include "anonymize/full_domain.h"

namespace mdc {

// Extra constraint evaluated on the post-suppression release; suppressed
// rows are exempt inside the implementations (see privacy/). The predicate
// MUST be monotone under generalization or the pruning is unsound;
// OptimalSearchConfig::verify_monotonicity enables a spot check.
using PrivacyPredicate = std::function<bool(const Anonymization&,
                                            const EquivalencePartition&)>;

struct EncodedBundle;

struct OptimalSearchConfig {
  int k = 2;  // k-anonymity + suppression policy applied at every node.
  SuppressionBudget suppression;
  // Optional extra predicate (ℓ-diversity, t-closeness, ...) that must also
  // hold; null means k-anonymity only.
  PrivacyPredicate extra_predicate;
  // If true, every satisfying minimal node's successors are re-checked and
  // a violation returns kFailedPrecondition instead of a wrong optimum.
  bool verify_monotonicity = false;
  // Worker threads for node evaluation; 1 = one node per wave, <= 0 = one
  // per hardware thread. Nodes of one lattice height evaluate concurrently
  // (monotonicity pruning only looks one height down); results are
  // identical for any thread count and step-budget expiry lands on the
  // same node as a one-thread run (deadlines at wave granularity).
  int threads = 1;
  // Prebuilt encode/translate tables for exactly this (dataset,
  // hierarchies) pair (see EncodedBundle in encoded_eval.h). Null builds
  // them fresh; results, budgets, and deterministic counters are identical
  // either way.
  std::shared_ptr<const EncodedBundle> encoded;
};

// Resumable sweep position: `next_index` points into the deterministic
// AllNodesByHeight order; `satisfying` is the monotonicity bitmap over
// lattice indices accumulated so far. The best evaluation itself is not
// serialized — `best_node` is re-evaluated on resume (evaluation is
// deterministic), which keeps checkpoints small.
struct OptimalLatticeCheckpoint final : Checkpointable {
  uint64_t next_index = 0;
  std::string satisfying;  // One byte per lattice node, 0 or 1.
  std::vector<LatticeNode> minimal_nodes;
  LatticeNode best_node;
  double best_loss = 0.0;
  uint64_t nodes_evaluated = 0;
  bool captured = false;

  bool has_state() const override { return captured; }
  StatusOr<std::string> SaveCheckpoint() const override;
  Status ResumeFrom(std::string_view bytes) override;
};

struct OptimalSearchResult {
  std::vector<LatticeNode> minimal_nodes;
  LatticeNode best_node;
  NodeEvaluation best;
  double best_loss = 0.0;
  size_t nodes_evaluated = 0;  // Predicate evaluations (pruning metric).
  uint64_t lattice_size = 0;
  RunStats run_stats;
};

// Budget expiry degrades gracefully: minimal nodes found before expiry are
// returned with run_stats.truncated set (each is genuinely minimal and
// satisfying; the sweep just did not reach the rest of the lattice). With
// no satisfying node found yet, the budget Status is returned. When
// `checkpoint` is non-null, budget expiry additionally captures the sweep
// position into it, and a checkpoint with state restarts the sweep there.
StatusOr<OptimalSearchResult> OptimalLatticeSearch(
    std::shared_ptr<const Dataset> original, const HierarchySet& hierarchies,
    const OptimalSearchConfig& config, const LossFn& loss = ProxyLoss,
    RunContext* run = nullptr, OptimalLatticeCheckpoint* checkpoint = nullptr);

}  // namespace mdc

#endif  // MDC_ANONYMIZE_OPTIMAL_LATTICE_H_
