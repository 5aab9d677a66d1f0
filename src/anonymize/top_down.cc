#include "anonymize/top_down.h"

#include <limits>

#include "anonymize/encoded_eval.h"
#include "common/failpoint.h"

namespace mdc {

StatusOr<GreedyWalkResult> TopDownSpecialize(
    std::shared_ptr<const Dataset> original, const HierarchySet& hierarchies,
    const GreedyWalkConfig& config, const LossFn& loss, RunContext* run) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  MDC_RETURN_IF_ERROR(hierarchies.CoversQuasiIdentifiers(original->schema()));
  MDC_ASSIGN_OR_RETURN(Lattice lattice, Lattice::ForHierarchies(hierarchies));
  MDC_ASSIGN_OR_RETURN(EncodedNodeEvaluator evaluator,
                       EncodedNodeEvaluator::Build(original, hierarchies, run));

  LatticeNode node = lattice.Top();
  MDC_ASSIGN_OR_RETURN(
      EncodedNodeEvaluator::Evaluation top,
      evaluator.Evaluate(node, config.k, config.suppression, run));
  if (!top.feasible) {
    return Status::Infeasible(
        "top-down specialization: table infeasible even at full "
        "generalization");
  }
  MDC_ASSIGN_OR_RETURN(NodeEvaluation current,
                       evaluator.Materialize(node, top, "top-down"));
  double current_loss = loss(current.anonymization, current.partition);
  int steps = 0;

  while (true) {
    // Among feasible specializations (predecessors), take the one with
    // the largest loss reduction.
    bool moved = false;
    LatticeNode best_node;
    NodeEvaluation best_evaluation;
    double best_loss = current_loss;
    for (const LatticeNode& candidate : lattice.Predecessors(node)) {
      MDC_FAILPOINT("top_down.step");
      auto evaluation_or =
          evaluator.Evaluate(candidate, config.k, config.suppression, run);
      if (!evaluation_or.ok()) {
        // The current node is feasible: stop specializing and release it.
        if (evaluation_or.status().IsBudgetError()) {
          return GreedyWalkResult{std::move(current), node, steps,
                                  RunContext::Stats(run, true)};
        }
        return evaluation_or.status();
      }
      if (!evaluation_or->feasible) continue;
      MDC_ASSIGN_OR_RETURN(
          NodeEvaluation evaluation,
          evaluator.Materialize(candidate, *evaluation_or, "top-down"));
      double candidate_loss =
          loss(evaluation.anonymization, evaluation.partition);
      if (candidate_loss < best_loss ||
          (!moved && candidate_loss <= best_loss)) {
        best_loss = candidate_loss;
        best_node = candidate;
        best_evaluation = std::move(evaluation);
        moved = true;
      }
    }
    if (!moved) break;
    node = best_node;
    current = std::move(best_evaluation);
    current_loss = best_loss;
    ++steps;
  }
  return GreedyWalkResult{std::move(current), node, steps,
                          RunContext::Stats(run)};
}

StatusOr<GreedyWalkResult> BottomUpGeneralize(
    std::shared_ptr<const Dataset> original, const HierarchySet& hierarchies,
    const GreedyWalkConfig& config, const LossFn& loss, RunContext* run) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  MDC_RETURN_IF_ERROR(hierarchies.CoversQuasiIdentifiers(original->schema()));
  MDC_ASSIGN_OR_RETURN(Lattice lattice, Lattice::ForHierarchies(hierarchies));
  MDC_ASSIGN_OR_RETURN(EncodedNodeEvaluator evaluator,
                       EncodedNodeEvaluator::Build(original, hierarchies, run));

  LatticeNode node = lattice.Bottom();
  MDC_ASSIGN_OR_RETURN(
      EncodedNodeEvaluator::Evaluation bottom,
      evaluator.Evaluate(node, config.k, config.suppression, run));
  MDC_ASSIGN_OR_RETURN(NodeEvaluation current,
                       evaluator.Materialize(node, bottom, "bottom-up"));
  int steps = 0;

  while (!current.feasible) {
    // Privacy gain per unit of loss: (drop in undersized rows) /
    // (increase in loss); take the best ratio among generalizations.
    size_t current_undersized = 0;
    for (ClassSpan members : current.partition.classes()) {
      if (members.size() < static_cast<size_t>(config.k)) {
        current_undersized += members.size();
      }
    }
    double current_loss = loss(current.anonymization, current.partition);

    bool moved = false;
    LatticeNode best_node;
    NodeEvaluation best_evaluation;
    double best_ratio = -std::numeric_limits<double>::infinity();
    for (const LatticeNode& candidate : lattice.Successors(node)) {
      MDC_FAILPOINT("bottom_up.step");
      MDC_ASSIGN_OR_RETURN(
          EncodedNodeEvaluator::Evaluation successor,
          evaluator.Evaluate(candidate, config.k, config.suppression, run));
      MDC_ASSIGN_OR_RETURN(
          NodeEvaluation evaluation,
          evaluator.Materialize(candidate, successor, "bottom-up"));
      size_t undersized = 0;
      for (ClassSpan members : evaluation.partition.classes()) {
        if (members.size() < static_cast<size_t>(config.k)) {
          undersized += members.size();
        }
      }
      double privacy_gain = static_cast<double>(current_undersized) -
                            static_cast<double>(undersized);
      if (evaluation.feasible) {
        // Feasibility reached: count the remaining undersized rows as
        // resolved (they were suppressed within budget).
        privacy_gain = static_cast<double>(current_undersized);
      }
      double loss_increase =
          loss(evaluation.anonymization, evaluation.partition) -
          current_loss;
      // Guard against zero/negative denominators: a free privacy gain is
      // infinitely good.
      double ratio = loss_increase <= 1e-12
                         ? (privacy_gain > 0
                                ? std::numeric_limits<double>::infinity()
                                : 0.0)
                         : privacy_gain / loss_increase;
      if (!moved || ratio > best_ratio) {
        best_ratio = ratio;
        best_node = candidate;
        best_evaluation = std::move(evaluation);
        moved = true;
      }
    }
    if (!moved) {
      return Status::Infeasible(
          "bottom-up generalization: table infeasible even at full "
          "generalization");
    }
    node = best_node;
    current = std::move(best_evaluation);
    ++steps;
  }
  return GreedyWalkResult{std::move(current), node, steps,
                          RunContext::Stats(run)};
}

}  // namespace mdc
