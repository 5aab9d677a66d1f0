// Columnar lattice-node evaluation: the one node evaluator every
// full-domain search (Datafly, Samarati, optimal, Incognito, stochastic,
// Pareto, top-down, bottom-up) runs on.
//
// The reference EvaluateNode() (full_domain.h) generalizes every cell
// through its hierarchy (string construction per row per column) and
// groups rows with a string-keyed map; no search calls it — it is the
// oracle tests and benches compare against. EncodedNodeEvaluator does the
// same work in integer space: the dataset's QI columns are
// dictionary-encoded once (table/encoded_view.h), each (position, level)
// gets a code translation table built from the distinct values only
// (hierarchy/level_codec.h), and evaluating a node is then an O(rows)
// integer gather plus hash-grouping on packed code tuples. Label codes are
// assigned in sorted-label order, so the resulting EquivalencePartition is
// bit-identical to the reference's — same class order, same members, same
// ClassOfRow.
//
// Evaluate() reproduces EvaluateNode()'s observable sequence — the k
// check, RunContext::Check, the "full_domain.evaluate" failpoint, node
// validation, suppression policy, feasibility — without materializing the
// released table. Materialize() builds the full NodeEvaluation (release
// labels, suppressed rows starred) when a caller actually needs it, which
// the searches only do for the few nodes they score or return.
//
// One intentional divergence: values that a hierarchy cannot generalize
// surface as an error from Build() (all levels are translated up front)
// instead of from the first node evaluation that touches the bad level.
// The Status itself is the same one the reference would return.
//
// EvaluateBatch() fans one wave of nodes out over a ThreadPool. Workers
// run with run = nullptr — the caller charges RunContext in deterministic
// node order *before* dispatch, so a step budget expires at exactly the
// same node index for any thread count (see the searches' wave loops).

#ifndef MDC_ANONYMIZE_ENCODED_EVAL_H_
#define MDC_ANONYMIZE_ENCODED_EVAL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anonymize/full_domain.h"
#include "common/thread_pool.h"
#include "hierarchy/level_codec.h"
#include "table/encoded_view.h"

namespace mdc {

// The immutable, dataset-derived half of an evaluator: the dictionary-coded
// QI columns and every (position, level) translation table. Building it is
// the expensive part of EncodedNodeEvaluator::Build, and it depends only on
// (dataset, hierarchies) — not on k, suppression, or any search config — so
// one bundle can back every lattice search against the same dataset. The
// service's DatasetCache keeps bundles resident across jobs and hands them
// back through SamaratiConfig/OptimalSearchConfig::encoded.
struct EncodedBundle {
  EncodedView view;
  LevelCodec codec;

  // The bytes Build() charges against a RunContext memory budget — charged
  // identically whether the bundle was built fresh or shared, so budget
  // accounting cannot observe the cache.
  uint64_t Bytes() const { return view.CodeBytes() + codec.TableBytes(); }
};

// Encodes the QI columns and builds every (position, level) code table.
// Pure function of (dataset, hierarchies); charges nothing.
StatusOr<std::shared_ptr<const EncodedBundle>> BuildEncodedBundle(
    const Dataset& original, const HierarchySet& hierarchies);

class EncodedNodeEvaluator {
 public:
  // What a search needs from a node before deciding to keep it. `partition`
  // matches EvaluateNode()'s partition exactly: post-suppression when
  // suppression fit the budget, the raw partition otherwise.
  struct Evaluation {
    EquivalencePartition partition;
    std::vector<size_t> suppressed_rows;  // Rows starred; empty over budget.
    size_t suppressed_count = 0;
    bool feasible = false;
  };

  // An unsuppressed release and its partition (the Pareto search's inputs).
  struct Candidate {
    Anonymization anonymization;
    EquivalencePartition partition;
  };

  // Encodes the QI columns and builds every (position, level) code table.
  // Charges `run` for the code arrays and translation tables. When `bundle`
  // is non-null it must have been built from the same (dataset, hierarchies)
  // pair — the encode/translate work is skipped, but the memory charge is
  // identical, so a run's budgets and counters cannot tell the difference.
  static StatusOr<EncodedNodeEvaluator> Build(
      std::shared_ptr<const Dataset> original, const HierarchySet& hierarchies,
      RunContext* run = nullptr,
      std::shared_ptr<const EncodedBundle> bundle = nullptr);

  // Integer-path equivalent of EvaluateNode(); thread-safe for concurrent
  // calls (pass run = nullptr from workers — RunContext is not).
  StatusOr<Evaluation> Evaluate(const LatticeNode& node, int k,
                                const SuppressionBudget& budget,
                                RunContext* run = nullptr) const;

  // Full NodeEvaluation as EvaluateNode() would have returned for `node`;
  // `evaluation` must come from Evaluate() with the same node and policy.
  StatusOr<NodeEvaluation> Materialize(const LatticeNode& node,
                                       const Evaluation& evaluation,
                                       std::string algorithm) const;

  // Release + raw partition with no suppression policy applied.
  StatusOr<Candidate> MaterializeUnsuppressed(const LatticeNode& node,
                                              std::string algorithm) const;

  const EncodedView& view() const { return bundle_->view; }
  const LevelCodec& codec() const { return bundle_->codec; }
  const std::shared_ptr<const EncodedBundle>& bundle() const {
    return bundle_;
  }
  size_t row_count() const { return bundle_->view.row_count(); }

 private:
  EncodedNodeEvaluator() = default;

  Status ValidateNode(const LatticeNode& node) const;

  // Gathers the per-position label-code columns for `node` into `out` and
  // the per-position label-space cardinalities into `cards`.
  void GatherLabelCodes(const LatticeNode& node,
                        std::vector<std::vector<uint32_t>>& out,
                        std::vector<uint32_t>& cards) const;

  std::shared_ptr<const Dataset> original_;
  HierarchySet hierarchies_;
  Schema release_schema_;
  std::shared_ptr<const EncodedBundle> bundle_;
};

// Nodes a search admits per wave: one at one thread, so admission,
// evaluation and commit interleave node by node; four per thread otherwise.
inline size_t WaveSize(const ThreadPool& pool) {
  return pool.thread_count() <= 1
             ? 1
             : static_cast<size_t>(pool.thread_count()) * 4;
}

// Evaluates `nodes` concurrently over `pool`, each with run = nullptr.
// results[i] corresponds to nodes[i]; a slot is only unset if the closure
// never ran (it always does). Callers charge budgets deterministically
// before calling and commit results in index order afterwards.
std::vector<std::optional<StatusOr<EncodedNodeEvaluator::Evaluation>>>
EvaluateBatch(const EncodedNodeEvaluator& evaluator,
              const std::vector<LatticeNode>& nodes, int k,
              const SuppressionBudget& budget, ThreadPool& pool);

}  // namespace mdc

#endif  // MDC_ANONYMIZE_ENCODED_EVAL_H_
