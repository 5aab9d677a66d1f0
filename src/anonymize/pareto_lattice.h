// Multi-objective lattice search — the paper's §7 proposal implemented.
//
// Instead of fixing a privacy constraint and maximizing utility, treat
// both as objectives over the full-domain lattice: each node induces a
// privacy property vector (equivalence-class sizes) and a utility property
// vector (per-tuple LM utility). A node is on the *vector Pareto front*
// when no other node's {privacy, utility} property-set strongly dominates
// it (Table 4 set semantics), and on the *scalar front* when no node beats
// it on both (min class size, total utility). The vector front is what the
// paper argues for: two nodes with the same scalar profile can still be
// distinguished (or be mutually incomparable) per tuple.

#ifndef MDC_ANONYMIZE_PARETO_LATTICE_H_
#define MDC_ANONYMIZE_PARETO_LATTICE_H_

#include <memory>
#include <vector>

#include "anonymize/full_domain.h"
#include "core/dominance.h"

namespace mdc {

struct ParetoLatticeConfig {
  // Nodes with suppressed tuples are excluded (suppression would make
  // per-tuple vectors incomparable across nodes in a trivial way), so the
  // search runs without a suppression budget.

  // Worker threads for candidate evaluation; 1 = one node per wave, <= 0 =
  // one per hardware thread. Candidates are independent, so any thread
  // count yields identical fronts; step budgets expire on the same node as
  // a one-thread run (deadlines at wave granularity).
  int threads = 1;
};

struct ParetoCandidate {
  LatticeNode node;
  double min_class_size = 0.0;  // Scalar privacy (the classic k).
  double total_utility = 0.0;   // Scalar utility (sum of LM utilities).
  PropertySet properties;       // {class sizes, per-tuple LM utility}.
};

// Resumable sweep position: `next_index` points into the deterministic
// AllNodesByHeight order, and `candidates` holds every candidate already
// evaluated (node, scalars, and both property vectors), so a resumed sweep
// continues appending and the final fronts are identical to an
// uninterrupted run's.
struct ParetoLatticeCheckpoint final : Checkpointable {
  uint64_t next_index = 0;
  std::vector<ParetoCandidate> candidates;
  bool captured = false;

  bool has_state() const override { return captured; }
  StatusOr<std::string> SaveCheckpoint() const override;
  Status ResumeFrom(std::string_view bytes) override;
};

struct ParetoLatticeResult {
  std::vector<ParetoCandidate> candidates;  // All evaluated lattice nodes.
  std::vector<size_t> vector_front;   // Indices: set-dominance front.
  std::vector<size_t> scalar_front;   // Indices: (k, utility) front.
  uint64_t lattice_size = 0;
  RunStats run_stats;
};

// Budget expiry degrades gracefully: the fronts are computed over the
// candidates evaluated so far and run_stats.truncated is set (the fronts
// are exact for the evaluated prefix but may miss unevaluated nodes). With
// no candidate evaluated yet, the budget Status is returned. When
// `checkpoint` is non-null, budget expiry additionally captures the sweep
// position into it, and a checkpoint with state restarts the sweep there.
StatusOr<ParetoLatticeResult> ParetoLatticeSearch(
    std::shared_ptr<const Dataset> original, const HierarchySet& hierarchies,
    const ParetoLatticeConfig& config = {}, RunContext* run = nullptr,
    ParetoLatticeCheckpoint* checkpoint = nullptr);

}  // namespace mdc

#endif  // MDC_ANONYMIZE_PARETO_LATTICE_H_
