// Shared machinery for full-domain generalization algorithms.
//
// Every full-domain search evaluates lattice nodes the same way: apply the
// node's scheme, find the equivalence classes, suppress the rows of classes
// smaller than k if the suppression budget allows, and report feasibility.
// Suppressed rows stay in the release fully generalized (paper §3) and are
// exempt from the k-anonymity check. The searches all run this on
// EncodedNodeEvaluator (encoded_eval.h); EvaluateNode() below is the
// string-path reference it is tested and benchmarked against.

#ifndef MDC_ANONYMIZE_FULL_DOMAIN_H_
#define MDC_ANONYMIZE_FULL_DOMAIN_H_

#include <functional>
#include <memory>
#include <string>

#include "anonymize/equivalence.h"
#include "anonymize/generalizer.h"
#include "common/run_context.h"
#include "common/snapshot.h"
#include "hierarchy/lattice.h"
#include "hierarchy/scheme.h"

namespace mdc {

// Checkpoint/resume contract for the long-running lattice searches.
//
// Each search takes an optional checkpoint object (a concrete subclass
// declared next to its algorithm). When a RunContext budget expires
// mid-search, the algorithm captures its in-progress state — frontier,
// visited/satisfying sets, counters, RNG state — into the object before
// degrading or returning, so the caller can persist it:
//
//   RunContext run;
//   run.set_max_steps(1000);
//   OptimalLatticeCheckpoint ckpt;
//   auto r = OptimalLatticeSearch(data, hier, cfg, loss, &run, &ckpt);
//   if (ckpt.has_state()) {
//     MDC_ASSIGN_OR_RETURN(std::string bytes, ckpt.SaveCheckpoint());
//     MDC_RETURN_IF_ERROR(DurableWriteFile(path, bytes));
//   }
//
// A later process loads the bytes with ResumeFrom() and passes the object
// back into the search, which skips the completed work and continues at
// the exact interruption point. Because every search iterates its lattice
// in a deterministic order (and the stochastic search restores its RNG
// stream), a resumed run produces a result identical to an uninterrupted
// one.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;

  // True when the object holds resumable state — captured from an
  // interrupted run or loaded by ResumeFrom().
  virtual bool has_state() const = 0;

  // Serializes the captured state as a framed snapshot (common/snapshot.h).
  // kFailedPrecondition if no state has been captured.
  virtual StatusOr<std::string> SaveCheckpoint() const = 0;

  // Restores state from SaveCheckpoint() bytes. Strict: truncated, corrupt,
  // wrong-kind, or version-mismatched input is rejected with a clean
  // Status and leaves the object unchanged.
  virtual Status ResumeFrom(std::string_view bytes) = 0;
};

// Snapshot helpers shared by the checkpoint implementations: a lattice
// node is a small int vector, and every search state serializes lists or
// sets of them.
void WriteLatticeNode(SnapshotWriter& writer, const LatticeNode& node);
StatusOr<LatticeNode> ReadLatticeNode(SnapshotReader& reader);
void WriteLatticeNodeVec(SnapshotWriter& writer,
                         const std::vector<LatticeNode>& nodes);
StatusOr<std::vector<LatticeNode>> ReadLatticeNodeVec(SnapshotReader& reader);

struct SuppressionBudget {
  // Maximum fraction of rows that may be suppressed (0 = none).
  double max_fraction = 0.0;

  size_t MaxRows(size_t row_count) const {
    return static_cast<size_t>(max_fraction * static_cast<double>(row_count));
  }
};

struct NodeEvaluation {
  Anonymization anonymization;     // Suppression already applied.
  EquivalencePartition partition;  // Partition of the final release.
  size_t suppressed_count = 0;
  bool feasible = false;  // k-anonymous after within-budget suppression.
};

// The reference node evaluation; no search calls it. Applies `node` over
// `hierarchies` cell by cell, suppresses undersized classes within budget,
// and reports whether the result is k-anonymous (suppressed rows exempt).
// `k` must be >= 1. A non-null `run` is charged one work-step per call; an
// exhausted budget returns the budget Status before any work.
// EncodedNodeEvaluator::Evaluate/Materialize must agree with it exactly
// (tests/encoded_eval_test.cc).
StatusOr<NodeEvaluation> EvaluateNode(std::shared_ptr<const Dataset> original,
                                      const HierarchySet& hierarchies,
                                      const LatticeNode& node, int k,
                                      const SuppressionBudget& budget,
                                      std::string algorithm,
                                      RunContext* run = nullptr);

// Scores an evaluated node; lower is better. Algorithms take a LossFn so
// callers can plug in any utility metric (e.g. Iyengar's LM from
// utility/loss_metric.h) without this layer depending on that one.
using LossFn =
    std::function<double(const Anonymization&, const EquivalencePartition&)>;

// Default proxy loss: total generalization height plus the suppressed
// fraction — cheap, monotone-ish, and hierarchy-agnostic.
double ProxyLoss(const Anonymization& anonymization,
                 const EquivalencePartition& partition);

}  // namespace mdc

#endif  // MDC_ANONYMIZE_FULL_DOMAIN_H_
