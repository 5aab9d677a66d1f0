#include "anonymize/samarati.h"

#include "anonymize/encoded_eval.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "common/waves.h"

namespace mdc {
namespace {

constexpr uint32_t kSamaratiPayloadVersion = 1;

// One height sweep in progress: the next node to evaluate (in the
// deterministic NodesAtHeight order) and the feasible nodes found so far.
// Kept outside CollectFeasibleAtHeight so an interrupted sweep can be
// checkpointed and resumed mid-height.
struct SweepState {
  size_t next_node = 0;
  std::vector<LatticeNode> feasible;
};

// Evaluates nodes at `height` starting from sweep.next_node, appending
// feasible ones to sweep.feasible. On error (budget or injected), leaves
// `sweep` positioned at the node that was not evaluated. The wave driver
// replays the failpoint + budget sequence per node in NodesAtHeight order
// before dispatch, so a step budget expires at the same node for any
// thread count.
Status CollectFeasibleAtHeight(const EncodedNodeEvaluator& evaluator,
                               const Lattice& lattice, int height,
                               const SamaratiConfig& config,
                               size_t& nodes_evaluated, SweepState& sweep,
                               RunContext* run, ThreadPool& pool) {
  TRACE_SPAN("samarati/sweep_height");
  MDC_METRIC_INC("search.samarati.height_sweeps");
  std::vector<LatticeNode> nodes = lattice.NodesAtHeight(height);
  if (sweep.next_node > nodes.size()) {
    return Status::InvalidArgument(
        "samarati checkpoint: sweep index out of range");
  }
  return RunWaves(
      pool, sweep.next_node, nodes.size(),
      [&](size_t) -> StatusOr<WaveAdmit> {
        MDC_RETURN_IF_ERROR(MDC_FAILPOINT_STATUS("samarati.evaluate"));
        MDC_RETURN_IF_ERROR(RunContext::Check(run));
        return WaveAdmit::kRun;
      },
      [&](size_t i) {
        return evaluator.Evaluate(nodes[i], config.k, config.suppression);
      },
      [&](size_t i, StatusOr<EncodedNodeEvaluator::Evaluation>& evaluation)
          -> Status {
        if (!evaluation.ok()) return evaluation.status();
        ++nodes_evaluated;
        MDC_METRIC_INC("search.samarati.nodes_evaluated");
        if (evaluation->feasible) {
          MDC_METRIC_INC("search.samarati.feasible_nodes");
          sweep.feasible.push_back(nodes[i]);
        }
        return Status::Ok();
      });
}

}  // namespace

StatusOr<std::string> SamaratiCheckpoint::SaveCheckpoint() const {
  if (!captured) {
    return Status::FailedPrecondition("samarati checkpoint: no state");
  }
  SnapshotWriter writer(SnapshotKind::kSamarati, kSamaratiPayloadVersion);
  writer.WriteU32(phase);
  writer.WriteI64(lo);
  writer.WriteI64(hi);
  writer.WriteI64(feasible_height);
  WriteLatticeNodeVec(writer, lowest_feasible);
  writer.WriteU64(next_node);
  WriteLatticeNodeVec(writer, sweep_feasible);
  writer.WriteU64(nodes_evaluated);
  return writer.Finish();
}

Status SamaratiCheckpoint::ResumeFrom(std::string_view bytes) {
  MDC_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(bytes, SnapshotKind::kSamarati,
                           kSamaratiPayloadVersion));
  SamaratiCheckpoint loaded;
  MDC_ASSIGN_OR_RETURN(loaded.phase, reader.ReadU32());
  MDC_ASSIGN_OR_RETURN(loaded.lo, reader.ReadI64());
  MDC_ASSIGN_OR_RETURN(loaded.hi, reader.ReadI64());
  MDC_ASSIGN_OR_RETURN(loaded.feasible_height, reader.ReadI64());
  MDC_ASSIGN_OR_RETURN(loaded.lowest_feasible, ReadLatticeNodeVec(reader));
  MDC_ASSIGN_OR_RETURN(loaded.next_node, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(loaded.sweep_feasible, ReadLatticeNodeVec(reader));
  MDC_ASSIGN_OR_RETURN(loaded.nodes_evaluated, reader.ReadU64());
  MDC_RETURN_IF_ERROR(reader.ExpectEnd());
  if (loaded.phase > 2) {
    return Status::InvalidArgument("samarati checkpoint: unknown phase");
  }
  loaded.captured = true;
  *this = std::move(loaded);
  return Status::Ok();
}

StatusOr<SamaratiResult> SamaratiAnonymize(
    std::shared_ptr<const Dataset> original, const HierarchySet& hierarchies,
    const SamaratiConfig& config, const LossFn& loss, RunContext* run,
    SamaratiCheckpoint* checkpoint) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  TRACE_SPAN("samarati/search");
  MDC_METRIC_INC("search.samarati.runs");
  MDC_RETURN_IF_ERROR(hierarchies.CoversQuasiIdentifiers(original->schema()));
  MDC_ASSIGN_OR_RETURN(Lattice lattice, Lattice::ForHierarchies(hierarchies));
  MDC_ASSIGN_OR_RETURN(EncodedNodeEvaluator evaluator,
                       EncodedNodeEvaluator::Build(original, hierarchies, run,
                                                   config.encoded));
  ThreadPool pool(ThreadPool::ResolveThreadCount(config.threads));

  SamaratiResult result;

  // Search state (restored from the checkpoint on resume).
  uint32_t phase = 0;
  int lo = 0;
  int hi = lattice.MaxHeight();
  int feasible_height = -1;  // Height at which lowest_feasible was found.
  std::vector<LatticeNode> lowest_feasible;
  SweepState sweep;

  if (checkpoint != nullptr && checkpoint->captured) {
    phase = checkpoint->phase;
    lo = static_cast<int>(checkpoint->lo);
    hi = static_cast<int>(checkpoint->hi);
    feasible_height = static_cast<int>(checkpoint->feasible_height);
    lowest_feasible = checkpoint->lowest_feasible;
    sweep.next_node = static_cast<size_t>(checkpoint->next_node);
    sweep.feasible = checkpoint->sweep_feasible;
    result.nodes_evaluated = static_cast<size_t>(checkpoint->nodes_evaluated);
    if (lo < 0 || hi > lattice.MaxHeight() || lo > hi ||
        feasible_height > lattice.MaxHeight()) {
      return Status::InvalidArgument(
          "samarati checkpoint: height out of range for this lattice");
    }
  }

  // Captures the interruption point. Only budget errors are captured —
  // they are the transient, resumable interruptions; real failures leave
  // the checkpoint as it was.
  auto capture = [&](uint32_t at_phase) {
    if (checkpoint == nullptr) return;
    checkpoint->phase = at_phase;
    checkpoint->lo = lo;
    checkpoint->hi = hi;
    checkpoint->feasible_height = feasible_height;
    checkpoint->lowest_feasible = lowest_feasible;
    checkpoint->next_node = sweep.next_node;
    checkpoint->sweep_feasible = sweep.feasible;
    checkpoint->nodes_evaluated = result.nodes_evaluated;
    checkpoint->captured = true;
  };

  // Picks the loss-minimizing node among `nodes` (the k-minimal
  // generalizations, or the best feasible height seen before the budget
  // expired). The final evaluations run unbudgeted — the work is bounded
  // by |nodes| and produces the result we already committed to return.
  auto finish = [&](std::vector<LatticeNode> nodes, int height,
                    bool truncated) -> StatusOr<SamaratiResult> {
    if (nodes.empty()) {
      // A fresh search keeps a feasible height at `hi` (the top is checked
      // first); only state resumed under other data or another k loses it.
      return Status::FailedPrecondition(
          "samarati: no feasible node at the minimal height; the checkpoint "
          "does not match this data or k");
    }
    result.minimal_height = height;
    result.minimal_nodes = std::move(nodes);
    double best_loss = 0.0;
    bool have_best = false;
    for (const LatticeNode& node : result.minimal_nodes) {
      MDC_ASSIGN_OR_RETURN(
          NodeEvaluation released,
          evaluator.Release(node, config.k, config.suppression, "samarati"));
      double node_loss = loss(released.anonymization, released.partition);
      if (!have_best || node_loss < best_loss) {
        best_loss = node_loss;
        result.best_node = node;
        result.best = std::move(released);
        have_best = true;
      }
    }
    result.run_stats = RunContext::Stats(run, truncated);
    return result;
  };

  // Phase 0: the top must be feasible for the search to make sense. A
  // budget error here has no best-so-far to fall back to, so the Status
  // is returned (after capturing the position for resume).
  if (phase == 0) {
    Status status = CollectFeasibleAtHeight(evaluator, lattice,
                                            lattice.MaxHeight(), config,
                                            result.nodes_evaluated, sweep,
                                            run, pool);
    if (!status.ok()) {
      if (status.IsBudgetError()) capture(0);
      return status;
    }
    if (sweep.feasible.empty()) {
      return Status::Infeasible(
          "Samarati: no " + std::to_string(config.k) +
          "-anonymous generalization exists within the suppression budget");
    }
    sweep = SweepState{};
    phase = 1;
  }

  // Phase 1: feasibility by height is monotone, so binary search for the
  // lowest height with at least one feasible node.
  if (phase == 1) {
    while (lo < hi) {
      int mid = lo + (hi - lo) / 2;
      Status status = CollectFeasibleAtHeight(evaluator, lattice, mid, config,
                                              result.nodes_evaluated, sweep,
                                              run, pool);
      if (!status.ok()) {
        // Degrade to the lowest feasible height already mapped; the top is
        // known feasible, so fall back to it if no mid succeeded yet.
        if (!status.IsBudgetError()) return status;
        capture(1);
        if (feasible_height >= 0) {
          return finish(std::move(lowest_feasible), feasible_height, true);
        }
        return finish({lattice.Top()}, lattice.MaxHeight(), true);
      }
      if (!sweep.feasible.empty()) {
        hi = mid;
        lowest_feasible = std::move(sweep.feasible);
        feasible_height = mid;
      } else {
        lo = mid + 1;
      }
      sweep = SweepState{};
    }
    if (feasible_height == lo) {
      return finish(std::move(lowest_feasible), lo, false);
    }
    phase = 2;
  }

  // Phase 2: the binary search converged on `lo` without sweeping it (the
  // last probe was below); sweep it now to collect all minimal nodes.
  Status status = CollectFeasibleAtHeight(evaluator, lattice, lo, config,
                                          result.nodes_evaluated, sweep, run,
                                          pool);
  if (!status.ok()) {
    if (!status.IsBudgetError()) return status;
    capture(2);
    if (!sweep.feasible.empty()) {
      // Partial sweep of the minimal height: what it found is feasible.
      return finish(std::move(sweep.feasible), lo, true);
    }
    return finish({lattice.Top()}, lattice.MaxHeight(), true);
  }
  return finish(std::move(sweep.feasible), lo, false);
}

}  // namespace mdc
