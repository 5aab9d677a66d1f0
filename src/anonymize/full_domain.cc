#include "anonymize/full_domain.h"

#include <numeric>

#include "common/failpoint.h"

namespace mdc {

StatusOr<NodeEvaluation> EvaluateNode(std::shared_ptr<const Dataset> original,
                                      const HierarchySet& hierarchies,
                                      const LatticeNode& node, int k,
                                      const SuppressionBudget& budget,
                                      std::string algorithm,
                                      RunContext* run) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  MDC_RETURN_IF_ERROR(RunContext::Check(run));
  MDC_FAILPOINT("full_domain.evaluate");
  MDC_ASSIGN_OR_RETURN(GeneralizationScheme scheme,
                       GeneralizationScheme::Create(hierarchies, node));
  MDC_ASSIGN_OR_RETURN(
      Anonymization anonymization,
      Generalizer::Apply(std::move(original), scheme, std::move(algorithm)));

  EquivalencePartition partition =
      EquivalencePartition::FromAnonymization(anonymization);

  // Rows of classes smaller than k are suppression candidates.
  std::vector<size_t> to_suppress;
  for (ClassSpan members : partition.classes()) {
    if (members.size() < static_cast<size_t>(k)) {
      to_suppress.insert(to_suppress.end(), members.begin(), members.end());
    }
  }

  NodeEvaluation evaluation{std::move(anonymization), std::move(partition), 0,
                            false};
  const size_t max_rows =
      budget.MaxRows(evaluation.anonymization.row_count());
  if (to_suppress.size() > max_rows) {
    // Infeasible at this node; report without suppressing so callers can
    // still inspect the raw partition.
    return evaluation;
  }
  if (!to_suppress.empty()) {
    MDC_RETURN_IF_ERROR(
        Generalizer::SuppressRows(evaluation.anonymization, to_suppress));
    evaluation.partition =
        EquivalencePartition::FromAnonymization(evaluation.anonymization);
    evaluation.suppressed_count = to_suppress.size();
  }
  size_t min_size = evaluation.partition.MinClassSizeExempting(
      evaluation.anonymization.suppressed);
  // min_size == 0 means every row is suppressed; that only satisfies k if
  // nothing remains to protect.
  evaluation.feasible =
      min_size >= static_cast<size_t>(k) ||
      evaluation.suppressed_count == evaluation.anonymization.row_count();
  return evaluation;
}

void WriteLatticeNode(SnapshotWriter& writer, const LatticeNode& node) {
  writer.WriteI32Vec(node);
}

StatusOr<LatticeNode> ReadLatticeNode(SnapshotReader& reader) {
  return reader.ReadI32Vec();
}

void WriteLatticeNodeVec(SnapshotWriter& writer,
                         const std::vector<LatticeNode>& nodes) {
  writer.WriteU64(nodes.size());
  for (const LatticeNode& node : nodes) WriteLatticeNode(writer, node);
}

StatusOr<std::vector<LatticeNode>> ReadLatticeNodeVec(SnapshotReader& reader) {
  MDC_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
  // Each serialized node costs at least a u64 length prefix, so a count
  // beyond the remaining bytes is corrupt — reject before reserving.
  if (count > reader.remaining() / sizeof(uint64_t)) {
    return Status::InvalidArgument("snapshot: node vector count exceeds data");
  }
  std::vector<LatticeNode> nodes;
  nodes.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MDC_ASSIGN_OR_RETURN(LatticeNode node, ReadLatticeNode(reader));
    nodes.push_back(std::move(node));
  }
  return nodes;
}

double ProxyLoss(const Anonymization& anonymization,
                 const EquivalencePartition& partition) {
  (void)partition;
  double loss = 0.0;
  if (anonymization.scheme.has_value()) {
    loss += static_cast<double>(anonymization.scheme->TotalLevel());
  }
  if (anonymization.row_count() > 0) {
    loss += static_cast<double>(anonymization.SuppressedCount()) /
            static_cast<double>(anonymization.row_count());
  }
  return loss;
}

}  // namespace mdc
