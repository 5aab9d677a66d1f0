// Incognito (LeFevre, DeWitt, Ramakrishnan, SIGMOD 2005): all k-anonymous
// full-domain generalizations via subset pruning.
//
// Two prunings compose:
//  - subset property: a node can only be k-anonymous if every projection
//    onto a strict subset of the quasi-identifiers is k-anonymous at the
//    same levels, so satisfying sets are built up one attribute at a time;
//  - generalization (monotonicity) property: within a subset's lattice, a
//    node above a satisfying node satisfies without evaluation.
//
// Output: ALL k-anonymous nodes of the full lattice (the optimal search
// returns only the minimal ones), the minimal frontier, the loss-best
// evaluation among the minimal nodes, and the evaluation count (the
// pruning-ablation number `repro_pruning_ablation` reports).

#ifndef MDC_ANONYMIZE_INCOGNITO_H_
#define MDC_ANONYMIZE_INCOGNITO_H_

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "anonymize/full_domain.h"

namespace mdc {

struct IncognitoConfig {
  int k = 2;
  SuppressionBudget suppression;
  // Worker threads for frequency checks; 1 = one node per wave, <= 0 = one
  // per hardware thread. Nodes of one height within a subset's sub-lattice
  // evaluate concurrently (both prunings only consult smaller subsets or
  // lower heights); results are identical for any thread count and step
  // budgets expire on the same node as a one-thread run.
  int threads = 1;
};

// Resumable search position: the subset/node indices refer to the
// deterministic iteration order (subsets by increasing size, nodes by
// height within each sub-lattice), so they are stable across processes.
// `satisfying` carries every frequency-check verdict accumulated so far —
// complete sets for finished subsets, a partial set for the interrupted
// one.
struct IncognitoCheckpoint final : Checkpointable {
  uint64_t next_subset = 0;
  uint64_t next_node = 0;
  uint64_t frequency_evaluations = 0;
  std::map<std::vector<size_t>, std::set<std::vector<int>>> satisfying;
  bool captured = false;

  bool has_state() const override { return captured; }
  StatusOr<std::string> SaveCheckpoint() const override;
  Status ResumeFrom(std::string_view bytes) override;
};

struct IncognitoResult {
  std::vector<LatticeNode> anonymous_nodes;  // Every satisfying node.
  std::vector<LatticeNode> minimal_nodes;    // No satisfying predecessor.
  LatticeNode best_node;
  NodeEvaluation best;  // Loss-best among minimal nodes.
  double best_loss = 0.0;
  size_t frequency_evaluations = 0;  // Subset partition computations.
  uint64_t lattice_size = 0;         // Full-QI lattice size.
  RunStats run_stats;
};

// Budget expiry degrades gracefully: if the full-QI subset already has
// satisfying nodes when the budget runs out, the result is built from
// those with run_stats.truncated set (sound — every reported node IS
// k-anonymous — but possibly missing nodes); otherwise the budget Status
// is returned. When `checkpoint` is non-null, budget expiry additionally
// captures the search position into it, and a checkpoint with state (from
// a prior capture or ResumeFrom) restarts the search at that position.
StatusOr<IncognitoResult> IncognitoAnonymize(
    std::shared_ptr<const Dataset> original, const HierarchySet& hierarchies,
    const IncognitoConfig& config, const LossFn& loss = ProxyLoss,
    RunContext* run = nullptr, IncognitoCheckpoint* checkpoint = nullptr);

}  // namespace mdc

#endif  // MDC_ANONYMIZE_INCOGNITO_H_
