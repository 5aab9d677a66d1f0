#include "anonymize/pareto_lattice.h"

#include "anonymize/encoded_eval.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "common/waves.h"
#include "core/pareto.h"
#include "core/properties.h"
#include "utility/loss_metric.h"

namespace mdc {
namespace {

constexpr uint32_t kParetoPayloadVersion = 1;

// Evaluates one lattice node into a Pareto candidate: unsuppressed release,
// class-size vector, per-tuple LM utility. Pure function of the node —
// safe to run concurrently.
StatusOr<ParetoCandidate> BuildCandidate(const EncodedNodeEvaluator& evaluator,
                                         const LatticeNode& node) {
  MDC_ASSIGN_OR_RETURN(EncodedNodeEvaluator::Candidate release,
                       evaluator.MaterializeUnsuppressed(node, "pareto"));
  ParetoCandidate candidate;
  candidate.node = node;
  PropertyVector sizes = EquivalenceClassSizeVector(release.partition);
  MDC_ASSIGN_OR_RETURN(PropertyVector utility,
                       LossMetric::PerTupleUtility(release.anonymization));
  candidate.min_class_size = sizes.Min();
  candidate.total_utility = utility.Sum();
  candidate.properties = {std::move(sizes), std::move(utility)};
  return candidate;
}

void WritePropertyVector(SnapshotWriter& writer, const PropertyVector& vec) {
  writer.WriteString(vec.name());
  writer.WriteU64(vec.values().size());
  for (double value : vec.values()) writer.WriteDouble(value);
}

StatusOr<PropertyVector> ReadPropertyVector(SnapshotReader& reader) {
  MDC_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
  MDC_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
  if (count > reader.remaining() / sizeof(double)) {
    return Status::InvalidArgument(
        "pareto checkpoint: property vector size exceeds data");
  }
  std::vector<double> values;
  values.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MDC_ASSIGN_OR_RETURN(double value, reader.ReadDouble());
    values.push_back(value);
  }
  return PropertyVector(std::move(name), std::move(values));
}

}  // namespace

StatusOr<std::string> ParetoLatticeCheckpoint::SaveCheckpoint() const {
  if (!captured) {
    return Status::FailedPrecondition("pareto checkpoint: no state");
  }
  SnapshotWriter writer(SnapshotKind::kParetoLattice, kParetoPayloadVersion);
  writer.WriteU64(next_index);
  writer.WriteU64(candidates.size());
  for (const ParetoCandidate& candidate : candidates) {
    WriteLatticeNode(writer, candidate.node);
    writer.WriteDouble(candidate.min_class_size);
    writer.WriteDouble(candidate.total_utility);
    writer.WriteU64(candidate.properties.size());
    for (const PropertyVector& vec : candidate.properties) {
      WritePropertyVector(writer, vec);
    }
  }
  return writer.Finish();
}

Status ParetoLatticeCheckpoint::ResumeFrom(std::string_view bytes) {
  MDC_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(bytes, SnapshotKind::kParetoLattice,
                           kParetoPayloadVersion));
  ParetoLatticeCheckpoint loaded;
  MDC_ASSIGN_OR_RETURN(loaded.next_index, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
  if (count > reader.remaining() / sizeof(uint64_t)) {
    return Status::InvalidArgument(
        "pareto checkpoint: candidate count exceeds data");
  }
  loaded.candidates.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ParetoCandidate candidate;
    MDC_ASSIGN_OR_RETURN(candidate.node, ReadLatticeNode(reader));
    MDC_ASSIGN_OR_RETURN(candidate.min_class_size, reader.ReadDouble());
    MDC_ASSIGN_OR_RETURN(candidate.total_utility, reader.ReadDouble());
    MDC_ASSIGN_OR_RETURN(uint64_t vec_count, reader.ReadU64());
    if (vec_count > reader.remaining() / sizeof(uint64_t)) {
      return Status::InvalidArgument(
          "pareto checkpoint: property set size exceeds data");
    }
    for (uint64_t j = 0; j < vec_count; ++j) {
      MDC_ASSIGN_OR_RETURN(PropertyVector vec, ReadPropertyVector(reader));
      candidate.properties.push_back(std::move(vec));
    }
    loaded.candidates.push_back(std::move(candidate));
  }
  MDC_RETURN_IF_ERROR(reader.ExpectEnd());
  loaded.captured = true;
  *this = std::move(loaded);
  return Status::Ok();
}

StatusOr<ParetoLatticeResult> ParetoLatticeSearch(
    std::shared_ptr<const Dataset> original, const HierarchySet& hierarchies,
    const ParetoLatticeConfig& config, RunContext* run,
    ParetoLatticeCheckpoint* checkpoint) {
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  TRACE_SPAN("pareto/search");
  MDC_METRIC_INC("search.pareto.runs");
  MDC_RETURN_IF_ERROR(hierarchies.CoversQuasiIdentifiers(original->schema()));
  MDC_ASSIGN_OR_RETURN(Lattice lattice, Lattice::ForHierarchies(hierarchies));
  MDC_ASSIGN_OR_RETURN(EncodedNodeEvaluator evaluator,
                       EncodedNodeEvaluator::Build(original, hierarchies, run));
  ThreadPool pool(ThreadPool::ResolveThreadCount(config.threads));

  ParetoLatticeResult result;
  result.lattice_size = lattice.NodeCount();

  const std::vector<LatticeNode> all_nodes = lattice.AllNodesByHeight();
  size_t position = 0;  // Next node to admit; the checkpoint's on resume.
  if (checkpoint != nullptr && checkpoint->captured) {
    if (checkpoint->next_index > all_nodes.size() ||
        checkpoint->candidates.size() > checkpoint->next_index) {
      return Status::InvalidArgument(
          "pareto checkpoint: does not match this lattice");
    }
    position = static_cast<size_t>(checkpoint->next_index);
    result.candidates = checkpoint->candidates;
  }

  // Candidates are independent, so one driver call covers the sweep.
  // Admission replays the budget + failpoint sequence and the
  // per-candidate memory charge per node before dispatch, so a step or
  // memory budget expires at the same node for any thread count.
  // Candidates retain two n-entry property vectors each; the charge
  // accounts for them so a memory budget can stop an oversized sweep.
  Status status = RunWaves(
      pool, position, all_nodes.size(),
      [&](size_t) -> StatusOr<WaveAdmit> {
        MDC_RETURN_IF_ERROR(RunContext::Check(run));
        MDC_RETURN_IF_ERROR(MDC_FAILPOINT_STATUS("pareto.node"));
        RunContext::ChargeMemory(run,
                                 2 * original->row_count() * sizeof(double));
        return WaveAdmit::kRun;
      },
      [&](size_t i) { return BuildCandidate(evaluator, all_nodes[i]); },
      [&](size_t, StatusOr<ParetoCandidate>& candidate) -> Status {
        if (!candidate.ok()) return candidate.status();
        MDC_METRIC_INC("search.pareto.candidates");
        result.candidates.push_back(std::move(candidate).value());
        return Status::Ok();
      });
  // A budget error captures the position, then degrades to the candidates
  // evaluated so far (the fronts over a prefix are exact for that prefix)
  // — or is reported if nothing was evaluated.
  const bool truncated = !status.ok();
  if (truncated) {
    if (!status.IsBudgetError()) return status;
    if (checkpoint != nullptr) {
      checkpoint->next_index = position;
      checkpoint->candidates = result.candidates;
      checkpoint->captured = true;
    }
    if (result.candidates.empty()) return status;
  }

  std::vector<PropertySet> property_sets;
  std::vector<std::vector<double>> scalar_points;
  property_sets.reserve(result.candidates.size());
  scalar_points.reserve(result.candidates.size());
  for (const ParetoCandidate& candidate : result.candidates) {
    property_sets.push_back(candidate.properties);
    scalar_points.push_back(
        {candidate.min_class_size, candidate.total_utility});
  }
  // Packed-engine front extraction, fanned out across the same worker
  // budget as the candidate evaluation (fronts are engine- and
  // thread-invariant).
  ParetoOptions pareto_options;
  pareto_options.threads = config.threads;
  MDC_ASSIGN_OR_RETURN(result.vector_front,
                       ParetoFront(property_sets, pareto_options));
  MDC_ASSIGN_OR_RETURN(result.scalar_front,
                       ParetoFrontScalar(scalar_points, pareto_options));
  result.run_stats = RunContext::Stats(run, truncated);
  return result;
}

}  // namespace mdc
