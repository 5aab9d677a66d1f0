#include "anonymize/encoded_eval.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "table/gather_kernels.h"

namespace mdc {

StatusOr<std::shared_ptr<const EncodedBundle>> BuildEncodedBundle(
    const Dataset& original, const HierarchySet& hierarchies) {
  auto bundle = std::make_shared<EncodedBundle>();
  MDC_ASSIGN_OR_RETURN(bundle->view,
                       EncodedView::Build(original, hierarchies.columns()));
  MDC_ASSIGN_OR_RETURN(bundle->codec,
                       LevelCodec::Build(bundle->view, hierarchies));
  return std::shared_ptr<const EncodedBundle>(std::move(bundle));
}

StatusOr<EncodedNodeEvaluator> EncodedNodeEvaluator::Build(
    std::shared_ptr<const Dataset> original, const HierarchySet& hierarchies,
    RunContext* run, std::shared_ptr<const EncodedBundle> bundle) {
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  TRACE_SPAN("encoded_eval/build");
  MDC_METRIC_INC("eval.builds");
  EncodedNodeEvaluator evaluator;
  if (bundle != nullptr) {
    MDC_METRIC_INC("eval.bundle_reuses");
    evaluator.bundle_ = std::move(bundle);
  } else {
    MDC_ASSIGN_OR_RETURN(evaluator.bundle_,
                         BuildEncodedBundle(*original, hierarchies));
  }
  MDC_ASSIGN_OR_RETURN(
      evaluator.release_schema_,
      Generalizer::ReleaseSchema(original->schema(), hierarchies.columns()));
  evaluator.original_ = std::move(original);
  evaluator.hierarchies_ = hierarchies;
  RunContext::ChargeMemory(run, evaluator.bundle_->Bytes());
  return evaluator;
}

Status EncodedNodeEvaluator::ValidateNode(const LatticeNode& node) const {
  // Same rejections, verbatim, as GeneralizationScheme::Create.
  if (node.size() != hierarchies_.size()) {
    return Status::InvalidArgument(
        "level vector arity " + std::to_string(node.size()) +
        " != bound column count " + std::to_string(hierarchies_.size()));
  }
  for (size_t i = 0; i < node.size(); ++i) {
    if (node[i] < 0 || node[i] > hierarchies_.At(i).height()) {
      return Status::OutOfRange("level " + std::to_string(node[i]) +
                                " out of range for " +
                                hierarchies_.At(i).Describe());
    }
  }
  return Status::Ok();
}

void EncodedNodeEvaluator::GatherLabelCodes(
    const LatticeNode& node, std::vector<std::vector<uint32_t>>& out,
    std::vector<uint32_t>& cards) const {
  const size_t m = bundle_->codec.position_count();
  const size_t rows = bundle_->view.row_count();
  const GatherKernels& kernels = ActiveGatherKernels();
  out.resize(m);
  cards.resize(m);
  for (size_t pos = 0; pos < m; ++pos) {
    const LevelCodeTable& table = bundle_->codec.table(pos, node[pos]);
    cards[pos] = static_cast<uint32_t>(table.labels.size());
    const AlignedVector<uint32_t>& codes = bundle_->view.codes(pos);
    std::vector<uint32_t>& labels = out[pos];
    labels.resize(rows);
    if (rows > 0) {
      kernels.gather_u32(codes.data(), rows, table.value_to_label.data(),
                         labels.data());
    }
  }
}

StatusOr<EncodedNodeEvaluator::Evaluation> EncodedNodeEvaluator::Evaluate(
    const LatticeNode& node, int k, const SuppressionBudget& budget,
    RunContext* run) const {
  // Mirror EvaluateNode()'s observable sequence exactly.
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  MDC_RETURN_IF_ERROR(RunContext::Check(run));
  MDC_FAILPOINT("full_domain.evaluate");
  MDC_RETURN_IF_ERROR(ValidateNode(node));
  // Counted only after the budget check, failpoint, and validation, so a
  // node that a budget or injected fault stops is never counted.
  MDC_METRIC_INC("eval.nodes");

  const size_t rows = bundle_->view.row_count();
  // Thread-local scratch: Evaluate runs once per lattice node (hundreds
  // to thousands of times per search, often from pool workers), and the
  // gathered label columns are dead once the partitions are built.
  // Reusing the buffers keeps the hot loop allocation-free after the
  // first node each thread touches.
  static thread_local std::vector<std::vector<uint32_t>> label_cols;
  static thread_local std::vector<uint32_t> cards;
  GatherLabelCodes(node, label_cols, cards);

  Evaluation evaluation;
  evaluation.partition =
      EquivalencePartition::FromCodeColumns(rows, label_cols, cards);

  // Rows of classes smaller than k are suppression candidates; class order
  // is canonical, so this list matches the reference's.
  std::vector<size_t> to_suppress;
  for (ClassSpan members : evaluation.partition.classes()) {
    if (members.size() < static_cast<size_t>(k)) {
      to_suppress.insert(to_suppress.end(), members.begin(), members.end());
    }
  }
  const size_t max_rows = budget.MaxRows(rows);
  if (to_suppress.size() > max_rows) {
    // Infeasible at this node; keep the raw partition, like the reference
    // path, so callers can still inspect it.
    return evaluation;
  }
  if (!to_suppress.empty()) {
    const size_t m = label_cols.size();
    for (size_t pos = 0; pos < m; ++pos) {
      uint32_t star = bundle_->codec.table(pos, node[pos]).star_code;
      for (size_t row : to_suppress) label_cols[pos][row] = star;
    }
    evaluation.partition =
        EquivalencePartition::FromCodeColumns(rows, label_cols, cards);
    evaluation.suppressed_rows = std::move(to_suppress);
    evaluation.suppressed_count = evaluation.suppressed_rows.size();
  }
  std::vector<bool> exempt(rows, false);
  for (size_t row : evaluation.suppressed_rows) exempt[row] = true;
  size_t min_size = evaluation.partition.MinClassSizeExempting(exempt);
  evaluation.feasible = min_size >= static_cast<size_t>(k) ||
                        evaluation.suppressed_count == rows;
  if (evaluation.feasible) MDC_METRIC_INC("eval.feasible");
  MDC_METRIC_ADD("eval.suppressed_rows", evaluation.suppressed_count);
  return evaluation;
}

StatusOr<NodeEvaluation> EncodedNodeEvaluator::Materialize(
    const LatticeNode& node, const Evaluation& evaluation,
    std::string algorithm) const {
  TRACE_SPAN("encoded_eval/materialize");
  MDC_METRIC_INC("eval.materialized");
  MDC_ASSIGN_OR_RETURN(GeneralizationScheme scheme,
                       GeneralizationScheme::Create(hierarchies_, node));
  const size_t rows = bundle_->view.row_count();
  const size_t m = bundle_->codec.position_count();
  const std::vector<size_t>& qi_columns = hierarchies_.columns();

  std::vector<bool> suppressed(rows, false);
  for (size_t row : evaluation.suppressed_rows) suppressed[row] = true;

  std::vector<const LevelCodeTable*> tables(m);
  for (size_t pos = 0; pos < m; ++pos) {
    tables[pos] = &bundle_->codec.table(pos, node[pos]);
  }
  Dataset release(release_schema_);
  release.ReserveRows(rows);
  for (size_t r = 0; r < rows; ++r) {
    Dataset::Row row = original_->row(r);
    for (size_t pos = 0; pos < m; ++pos) {
      uint32_t code = suppressed[r] ? tables[pos]->star_code
                                    : tables[pos]->value_to_label[
                                          bundle_->view.codes(pos)[r]];
      row[qi_columns[pos]] = Value(tables[pos]->labels[code]);
    }
    MDC_RETURN_IF_ERROR(release.AppendRow(std::move(row)));
  }

  NodeEvaluation out{
      Anonymization{original_, std::move(release), qi_columns,
                    std::move(suppressed), std::move(scheme),
                    std::move(algorithm)},
      evaluation.partition, evaluation.suppressed_count, evaluation.feasible};
  return out;
}

StatusOr<EncodedNodeEvaluator::Candidate>
EncodedNodeEvaluator::MaterializeUnsuppressed(const LatticeNode& node,
                                              std::string algorithm) const {
  MDC_RETURN_IF_ERROR(ValidateNode(node));
  const size_t rows = bundle_->view.row_count();
  std::vector<std::vector<uint32_t>> label_cols;
  std::vector<uint32_t> cards;
  GatherLabelCodes(node, label_cols, cards);
  Evaluation raw;
  raw.partition = EquivalencePartition::FromCodeColumns(rows, label_cols,
                                                        cards);
  MDC_ASSIGN_OR_RETURN(NodeEvaluation materialized,
                       Materialize(node, raw, std::move(algorithm)));
  return Candidate{std::move(materialized.anonymization),
                   std::move(materialized.partition)};
}

std::vector<std::optional<StatusOr<EncodedNodeEvaluator::Evaluation>>>
EvaluateBatch(const EncodedNodeEvaluator& evaluator,
              const std::vector<LatticeNode>& nodes, int k,
              const SuppressionBudget& budget, ThreadPool& pool) {
  std::vector<std::optional<StatusOr<EncodedNodeEvaluator::Evaluation>>>
      results(nodes.size());
  pool.ParallelFor(nodes.size(), [&](size_t i) {
    results[i].emplace(evaluator.Evaluate(nodes[i], k, budget, nullptr));
  });
  return results;
}

}  // namespace mdc
