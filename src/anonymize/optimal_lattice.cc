#include "anonymize/optimal_lattice.h"

#include <algorithm>

#include "anonymize/encoded_eval.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "common/waves.h"

namespace mdc {
namespace {

bool SatisfiesAll(const OptimalSearchConfig& config,
                  const NodeEvaluation& evaluation) {
  if (!evaluation.feasible) return false;
  if (config.extra_predicate &&
      !config.extra_predicate(evaluation.anonymization,
                              evaluation.partition)) {
    return false;
  }
  return true;
}

constexpr uint32_t kOptimalPayloadVersion = 1;

}  // namespace

StatusOr<std::string> OptimalLatticeCheckpoint::SaveCheckpoint() const {
  if (!captured) {
    return Status::FailedPrecondition("optimal checkpoint: no state");
  }
  SnapshotWriter writer(SnapshotKind::kOptimalLattice, kOptimalPayloadVersion);
  writer.WriteU64(next_index);
  writer.WriteString(satisfying);
  WriteLatticeNodeVec(writer, minimal_nodes);
  WriteLatticeNode(writer, best_node);
  writer.WriteDouble(best_loss);
  writer.WriteU64(nodes_evaluated);
  return writer.Finish();
}

Status OptimalLatticeCheckpoint::ResumeFrom(std::string_view bytes) {
  MDC_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(bytes, SnapshotKind::kOptimalLattice,
                           kOptimalPayloadVersion));
  OptimalLatticeCheckpoint loaded;
  MDC_ASSIGN_OR_RETURN(loaded.next_index, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(loaded.satisfying, reader.ReadString());
  MDC_ASSIGN_OR_RETURN(loaded.minimal_nodes, ReadLatticeNodeVec(reader));
  MDC_ASSIGN_OR_RETURN(loaded.best_node, ReadLatticeNode(reader));
  MDC_ASSIGN_OR_RETURN(loaded.best_loss, reader.ReadDouble());
  MDC_ASSIGN_OR_RETURN(loaded.nodes_evaluated, reader.ReadU64());
  MDC_RETURN_IF_ERROR(reader.ExpectEnd());
  loaded.captured = true;
  *this = std::move(loaded);
  return Status::Ok();
}

StatusOr<OptimalSearchResult> OptimalLatticeSearch(
    std::shared_ptr<const Dataset> original, const HierarchySet& hierarchies,
    const OptimalSearchConfig& config, const LossFn& loss, RunContext* run,
    OptimalLatticeCheckpoint* checkpoint) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  TRACE_SPAN("optimal/search");
  MDC_METRIC_INC("search.optimal.runs");
  MDC_RETURN_IF_ERROR(hierarchies.CoversQuasiIdentifiers(original->schema()));
  MDC_ASSIGN_OR_RETURN(Lattice lattice, Lattice::ForHierarchies(hierarchies));
  MDC_ASSIGN_OR_RETURN(EncodedNodeEvaluator evaluator,
                       EncodedNodeEvaluator::Build(original, hierarchies, run,
                                                   config.encoded));
  ThreadPool pool(ThreadPool::ResolveThreadCount(config.threads));

  OptimalSearchResult result;
  result.lattice_size = lattice.NodeCount();

  // satisfying[index] records nodes known to satisfy (directly evaluated or
  // implied by monotonicity from a predecessor).
  std::vector<char> satisfying(result.lattice_size, 0);
  RunContext::ChargeMemory(run, satisfying.size() * sizeof(char));

  const std::vector<LatticeNode> all_nodes = lattice.AllNodesByHeight();
  size_t position = 0;  // Next node to admit; the checkpoint's on resume.
  if (checkpoint != nullptr && checkpoint->captured) {
    if (checkpoint->satisfying.size() != satisfying.size() ||
        checkpoint->next_index > all_nodes.size()) {
      return Status::InvalidArgument(
          "optimal checkpoint: does not match this lattice");
    }
    std::copy(checkpoint->satisfying.begin(), checkpoint->satisfying.end(),
              satisfying.begin());
    position = static_cast<size_t>(checkpoint->next_index);
    result.minimal_nodes = checkpoint->minimal_nodes;
    result.nodes_evaluated = static_cast<size_t>(checkpoint->nodes_evaluated);
    if (!result.minimal_nodes.empty()) {
      // Re-derive the best evaluation: evaluation is deterministic, so
      // this reproduces exactly what the interrupted run held in memory.
      result.best_node = checkpoint->best_node;
      result.best_loss = checkpoint->best_loss;
      MDC_ASSIGN_OR_RETURN(result.best,
                           evaluator.Release(result.best_node, config.k,
                                             config.suppression, "optimal"));
    }
  }

  // Captures the sweep position for resume; `next_index` is the node the
  // interrupted run did not finish evaluating.
  auto capture = [&](size_t next_index) {
    if (checkpoint == nullptr) return;
    checkpoint->next_index = next_index;
    checkpoint->satisfying.assign(satisfying.begin(), satisfying.end());
    checkpoint->minimal_nodes = result.minimal_nodes;
    checkpoint->best_node = result.best_node;
    checkpoint->best_loss = result.best_loss;
    checkpoint->nodes_evaluated = result.nodes_evaluated;
    checkpoint->captured = true;
  };

  // Admits one node in sweep order: a node with a satisfying predecessor
  // is implied (monotonicity) and skipped; the rest replay the failpoint +
  // budget sequence before dispatch.
  auto admit = [&](size_t i) -> StatusOr<WaveAdmit> {
    const LatticeNode& node = all_nodes[i];
    for (const LatticeNode& pred : lattice.Predecessors(node)) {
      if (satisfying[lattice.IndexOf(pred)] != 0) {
        satisfying[lattice.IndexOf(node)] = 1;
        MDC_METRIC_INC("search.optimal.implied_pruned");
        return WaveAdmit::kSkip;
      }
    }
    MDC_RETURN_IF_ERROR(MDC_FAILPOINT_STATUS("optimal.node"));
    MDC_RETURN_IF_ERROR(RunContext::Check(run));
    return WaveAdmit::kRun;
  };
  auto evaluate = [&](size_t i) {
    return evaluator.Evaluate(all_nodes[i], config.k, config.suppression);
  };
  // Commits one evaluated node in sweep order: feasible nodes are
  // materialized (release + loss) and recorded as minimal.
  auto commit = [&](size_t i,
                    StatusOr<EncodedNodeEvaluator::Evaluation>& evaluation)
      -> Status {
    if (!evaluation.ok()) return evaluation.status();
    ++result.nodes_evaluated;
    MDC_METRIC_INC("search.optimal.nodes_evaluated");
    if (!evaluation->feasible) return Status::Ok();
    const LatticeNode& node = all_nodes[i];
    MDC_ASSIGN_OR_RETURN(NodeEvaluation full,
                         evaluator.Materialize(node, *evaluation, "optimal"));
    if (config.extra_predicate &&
        !config.extra_predicate(full.anonymization, full.partition)) {
      return Status::Ok();
    }
    MDC_METRIC_INC("search.optimal.satisfying_nodes");
    satisfying[lattice.IndexOf(node)] = 1;
    result.minimal_nodes.push_back(node);
    double node_loss = loss(full.anonymization, full.partition);
    if (result.minimal_nodes.size() == 1 || node_loss < result.best_loss) {
      result.best_loss = node_loss;
      result.best_node = node;
      result.best = std::move(full);
    }
    return Status::Ok();
  };

  // One driver call per lattice height: pruning consults only the height
  // below, so nodes of one height are independent, but admission must not
  // run ahead of the previous height's commits.
  bool truncated = false;
  while (position < all_nodes.size()) {
    const int height = lattice.Height(all_nodes[position]);
    size_t height_end = position;
    while (height_end < all_nodes.size() &&
           lattice.Height(all_nodes[height_end]) == height) {
      ++height_end;
    }
    Status status =
        RunWaves(pool, position, height_end, admit, evaluate, commit);
    if (status.ok()) continue;
    if (status.IsBudgetError()) {
      capture(position);
      // Degrade to the minimal nodes already found; each is sound. With
      // nothing found yet, the budget error propagates.
      if (!result.minimal_nodes.empty()) {
        truncated = true;
        break;
      }
    }
    return status;
  }

  if (result.minimal_nodes.empty()) {
    return Status::Infeasible(
        "optimal lattice search: no node satisfies the privacy constraints");
  }

  result.run_stats = RunContext::Stats(run, truncated);

  if (config.verify_monotonicity && !truncated) {
    for (const LatticeNode& node : result.minimal_nodes) {
      for (const LatticeNode& succ : lattice.Successors(node)) {
        MDC_ASSIGN_OR_RETURN(
            EncodedNodeEvaluator::Evaluation evaluation,
            evaluator.Evaluate(succ, config.k, config.suppression));
        MDC_ASSIGN_OR_RETURN(
            NodeEvaluation released,
            evaluator.Materialize(succ, evaluation, "optimal"));
        if (!SatisfiesAll(config, released)) {
          return Status::FailedPrecondition(
              "privacy predicate is not monotone: " +
              Lattice::ToString(node) + " satisfies but its successor " +
              Lattice::ToString(succ) + " does not");
        }
      }
    }
  }
  return result;
}

}  // namespace mdc
