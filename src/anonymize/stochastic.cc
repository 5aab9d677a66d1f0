#include "anonymize/stochastic.h"

#include <optional>
#include <unordered_map>

#include "anonymize/encoded_eval.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace mdc {
namespace {

// Memoizing evaluator so restarts revisiting a node don't recompute it.
// The hill-climb only ever needs feasibility and loss, so that is all the
// cache retains: feasible nodes are materialized once at insertion to
// compute their loss, infeasible ones never leave integer space.
class NodeCache {
 public:
  struct CachedEval {
    bool feasible = false;
    double loss = 0.0;  // Valid only when feasible.
  };

  NodeCache(const EncodedNodeEvaluator& evaluator, const Lattice& lattice,
            int k, const SuppressionBudget& budget, const LossFn& loss,
            RunContext* run)
      : evaluator_(evaluator),
        lattice_(lattice),
        k_(k),
        budget_(budget),
        loss_(loss),
        run_(run) {}

  StatusOr<const CachedEval*> Get(const LatticeNode& node,
                                  size_t& evaluations) {
    size_t index = lattice_.IndexOf(node);
    auto it = cache_.find(index);
    if (it != cache_.end()) {
      MDC_METRIC_INC("search.stochastic.cache_hits");
      return &it->second;
    }
    MDC_FAILPOINT("stochastic.evaluate");
    MDC_ASSIGN_OR_RETURN(EncodedNodeEvaluator::Evaluation evaluation,
                         evaluator_.Evaluate(node, k_, budget_, run_));
    return Insert(index, node, evaluation, evaluations);
  }

  bool Contains(const LatticeNode& node) const {
    return cache_.find(lattice_.IndexOf(node)) != cache_.end();
  }

  // Worker-side evaluation: no budget, no failpoint, no cache mutation.
  StatusOr<EncodedNodeEvaluator::Evaluation> Speculate(
      const LatticeNode& node) const {
    return evaluator_.Evaluate(node, k_, budget_, nullptr);
  }

  // Commits a speculative result, replaying the failpoint + budget-charge
  // sequence a serial Get() miss would have run for this node.
  StatusOr<const CachedEval*> CommitSpeculative(
      const LatticeNode& node,
      StatusOr<EncodedNodeEvaluator::Evaluation>& result,
      size_t& evaluations) {
    MDC_FAILPOINT("stochastic.evaluate");
    MDC_RETURN_IF_ERROR(RunContext::Check(run_));
    if (!result.ok()) return result.status();
    return Insert(lattice_.IndexOf(node), node, *result, evaluations);
  }

 private:
  StatusOr<const CachedEval*> Insert(
      size_t index, const LatticeNode& node,
      const EncodedNodeEvaluator::Evaluation& evaluation,
      size_t& evaluations) {
    CachedEval entry;
    entry.feasible = evaluation.feasible;
    if (evaluation.feasible) {
      MDC_ASSIGN_OR_RETURN(
          NodeEvaluation full,
          evaluator_.Materialize(node, evaluation, "stochastic"));
      entry.loss = loss_(full.anonymization, full.partition);
    }
    // The commit point shared by serial Get() misses and
    // CommitSpeculative: counting here (never in Speculate) keeps the
    // total invariant across thread counts.
    ++evaluations;
    MDC_METRIC_INC("search.stochastic.nodes_evaluated");
    auto [inserted, _] = cache_.emplace(index, entry);
    return &inserted->second;
  }

  const EncodedNodeEvaluator& evaluator_;
  const Lattice& lattice_;
  int k_;
  SuppressionBudget budget_;
  const LossFn& loss_;
  RunContext* run_;
  std::unordered_map<size_t, CachedEval> cache_;
};

// One restart of the hill-climb; leaves the local optimum in `node` /
// `node_loss`. Budget errors surface through the returned Status.
Status RunRestart(const Lattice& lattice, NodeCache& cache, Rng& rng,
                  const StochasticConfig& config, ThreadPool* pool,
                  size_t& evaluations, LatticeNode& node, double& node_loss) {
  // Random start: sample a node, then raise it until feasible. Inherently
  // sequential (each step draws from the RNG), so no speculation here.
  node.assign(lattice.dimension(), 0);
  for (size_t i = 0; i < node.size(); ++i) {
    node[i] = static_cast<int>(
        rng.NextBelow(static_cast<uint64_t>(lattice.max_levels()[i]) + 1));
  }
  while (true) {
    MDC_ASSIGN_OR_RETURN(const NodeCache::CachedEval* eval,
                         cache.Get(node, evaluations));
    if (eval->feasible) break;
    std::vector<LatticeNode> ups = lattice.Successors(node);
    if (ups.empty()) {
      // A fresh search checks the top first; only a resumed one gets here.
      return Status::FailedPrecondition(
          "stochastic: the top node is not feasible; the checkpoint does "
          "not match this data or k");
    }
    node = ups[rng.NextBelow(ups.size())];
  }

  // Greedy descent: move to any feasible neighbor (prefer predecessors,
  // which reduce generalization) with strictly lower loss.
  MDC_ASSIGN_OR_RETURN(const NodeCache::CachedEval* current,
                       cache.Get(node, evaluations));
  node_loss = current->loss;
  for (int step = 0; step < config.max_steps_per_restart; ++step) {
    std::vector<LatticeNode> neighbors = lattice.Predecessors(node);
    std::vector<LatticeNode> ups = lattice.Successors(node);
    neighbors.insert(neighbors.end(), ups.begin(), ups.end());
    rng.Shuffle(neighbors);

    // With a pool, speculatively evaluate every not-yet-cached neighbor
    // concurrently, then commit results in walk order below. Results past
    // the first improving move are discarded uncommitted — not cached, not
    // counted, not charged — so the walk, the cache contents and the
    // budget sequence match a serial run exactly.
    std::vector<size_t> miss;
    std::vector<std::optional<StatusOr<EncodedNodeEvaluator::Evaluation>>>
        speculated;
    if (pool != nullptr) {
      for (size_t i = 0; i < neighbors.size(); ++i) {
        if (!cache.Contains(neighbors[i])) miss.push_back(i);
      }
      speculated.resize(miss.size());
      pool->ParallelFor(miss.size(), [&](size_t j) {
        speculated[j].emplace(cache.Speculate(neighbors[miss[j]]));
      });
    }

    bool moved = false;
    size_t next_miss = 0;
    for (size_t i = 0; i < neighbors.size(); ++i) {
      const LatticeNode& candidate = neighbors[i];
      const NodeCache::CachedEval* eval = nullptr;
      if (pool != nullptr && next_miss < miss.size() &&
          miss[next_miss] == i) {
        MDC_ASSIGN_OR_RETURN(
            eval, cache.CommitSpeculative(candidate, *speculated[next_miss],
                                          evaluations));
        ++next_miss;
      } else {
        MDC_ASSIGN_OR_RETURN(eval, cache.Get(candidate, evaluations));
      }
      if (!eval->feasible) continue;
      if (eval->loss < node_loss) {
        node = candidate;
        node_loss = eval->loss;
        moved = true;
        break;
      }
    }
    if (!moved) break;  // Local optimum.
  }
  return Status::Ok();
}

constexpr uint32_t kStochasticPayloadVersion = 1;

}  // namespace

StatusOr<std::string> StochasticCheckpoint::SaveCheckpoint() const {
  if (!captured) {
    return Status::FailedPrecondition("stochastic checkpoint: no state");
  }
  SnapshotWriter writer(SnapshotKind::kStochastic, kStochasticPayloadVersion);
  writer.WriteU64(next_restart);
  for (uint64_t word : rng_state) writer.WriteU64(word);
  WriteLatticeNode(writer, best_node);
  writer.WriteDouble(best_loss);
  writer.WriteBool(have_best);
  return writer.Finish();
}

Status StochasticCheckpoint::ResumeFrom(std::string_view bytes) {
  MDC_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(bytes, SnapshotKind::kStochastic,
                           kStochasticPayloadVersion));
  StochasticCheckpoint loaded;
  MDC_ASSIGN_OR_RETURN(loaded.next_restart, reader.ReadU64());
  for (uint64_t& word : loaded.rng_state) {
    MDC_ASSIGN_OR_RETURN(word, reader.ReadU64());
  }
  MDC_ASSIGN_OR_RETURN(loaded.best_node, ReadLatticeNode(reader));
  MDC_ASSIGN_OR_RETURN(loaded.best_loss, reader.ReadDouble());
  MDC_ASSIGN_OR_RETURN(loaded.have_best, reader.ReadBool());
  MDC_RETURN_IF_ERROR(reader.ExpectEnd());
  loaded.captured = true;
  *this = std::move(loaded);
  return Status::Ok();
}

StatusOr<StochasticResult> StochasticAnonymize(
    std::shared_ptr<const Dataset> original, const HierarchySet& hierarchies,
    const StochasticConfig& config, const LossFn& loss, RunContext* run,
    StochasticCheckpoint* checkpoint) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (config.restarts < 1) {
    return Status::InvalidArgument("restarts must be >= 1");
  }
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  TRACE_SPAN("stochastic/search");
  MDC_METRIC_INC("search.stochastic.runs");
  MDC_RETURN_IF_ERROR(hierarchies.CoversQuasiIdentifiers(original->schema()));
  MDC_ASSIGN_OR_RETURN(Lattice lattice, Lattice::ForHierarchies(hierarchies));
  MDC_ASSIGN_OR_RETURN(EncodedNodeEvaluator evaluator,
                       EncodedNodeEvaluator::Build(original, hierarchies, run));
  const int threads = ThreadPool::ResolveThreadCount(config.threads);
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  ThreadPool* pool_ptr = pool.has_value() ? &*pool : nullptr;

  StochasticResult result;
  NodeCache cache(evaluator, lattice, config.k, config.suppression, loss,
                  run);
  Rng rng(config.seed);

  bool have_best = false;
  int start_restart = 0;
  const bool resuming = checkpoint != nullptr && checkpoint->captured;
  if (resuming) {
    if (checkpoint->next_restart > static_cast<uint64_t>(config.restarts)) {
      return Status::InvalidArgument(
          "stochastic checkpoint: restart index out of range");
    }
    start_restart = static_cast<int>(checkpoint->next_restart);
    rng.RestoreState(checkpoint->rng_state);
    have_best = checkpoint->have_best;
    if (have_best) {
      result.best_node = checkpoint->best_node;
      result.best_loss = checkpoint->best_loss;
    }
  } else {
    // The top node is feasible iff anything is. A budget error this early
    // has nothing to degrade to, so it propagates. A resumed run already
    // passed this check before its checkpoint was taken.
    MDC_ASSIGN_OR_RETURN(const NodeCache::CachedEval* top,
                         cache.Get(lattice.Top(), result.nodes_evaluated));
    if (!top->feasible) {
      return Status::Infeasible(
          "stochastic search: table infeasible even at full generalization");
    }
  }

  bool truncated = false;
  for (int restart = start_restart; restart < config.restarts; ++restart) {
    TRACE_SPAN("stochastic/restart");
    MDC_METRIC_INC("search.stochastic.restarts");
    // Snapshot the stream BEFORE the restart draws from it, so a resumed
    // run replays the interrupted restart with the same draws.
    const std::array<uint64_t, 6> restart_rng_state = rng.SaveState();
    LatticeNode node;
    double node_loss = 0.0;
    Status status = RunRestart(lattice, cache, rng, config, pool_ptr,
                               result.nodes_evaluated, node, node_loss);
    if (!status.ok()) {
      if (!status.IsBudgetError()) return status;
      if (checkpoint != nullptr) {
        checkpoint->next_restart = static_cast<uint64_t>(restart);
        checkpoint->rng_state = restart_rng_state;
        checkpoint->best_node = result.best_node;
        checkpoint->best_loss = result.best_loss;
        checkpoint->have_best = have_best;
        checkpoint->captured = true;
      }
      // Degrade: best completed restart, or the feasible top if none.
      if (!have_best) {
        result.best_node = lattice.Top();
      }
      truncated = true;
      break;
    }
    if (!have_best || node_loss < result.best_loss) {
      result.best_loss = node_loss;
      result.best_node = node;
      have_best = true;
    }
  }

  // Final evaluation runs unbudgeted: it re-derives the release we already
  // committed to return.
  MDC_ASSIGN_OR_RETURN(NodeEvaluation best,
                       evaluator.Release(result.best_node, config.k,
                                         config.suppression, "stochastic"));
  if (!have_best) {
    result.best_loss = loss(best.anonymization, best.partition);
  }
  result.best = std::move(best);
  result.run_stats = RunContext::Stats(run, truncated);
  return result;
}

}  // namespace mdc
