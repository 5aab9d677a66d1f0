#include "anonymize/encoded_eval.h"

#include <algorithm>
#include <span>
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

std::vector<std::span<const uint32_t>> EncodedNodeEvaluator::GatherLabelCodes(
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
  return {out.begin(), out.end()};
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
  const std::vector<std::span<const uint32_t>> spans =
      GatherLabelCodes(node, label_cols, cards);

  Evaluation evaluation;
  evaluation.partition =
      EquivalencePartition::FromCodeColumns(rows, spans, cards);

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
        EquivalencePartition::FromCodeColumns(rows, spans, cards);
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

  // Each released QI column is the level's label codes over its label
  // table, unused labels and "*" included; the rest are copied whole.
  std::vector<Dataset::Column> columns =
      original_->CopyColumnsExcept(qi_columns);
  for (size_t pos = 0; pos < m; ++pos) {
    const LevelCodeTable& table = bundle_->codec.table(pos, node[pos]);
    const AlignedVector<uint32_t>& value_codes = bundle_->view.codes(pos);
    Dataset::Column& column = columns[qi_columns[pos]];
    column.codes.resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      column.codes[r] = suppressed[r]
                            ? table.star_code
                            : table.value_to_label[value_codes[r]];
    }
    column.dictionary = table.labels;
  }
  MDC_ASSIGN_OR_RETURN(
      Dataset release,
      Dataset::FromColumns(release_schema_, std::move(columns)));

  NodeEvaluation out{
      Anonymization{original_, std::move(release), qi_columns,
                    std::move(suppressed), std::move(scheme),
                    std::move(algorithm)},
      evaluation.partition, evaluation.suppressed_count, evaluation.feasible};
  return out;
}

StatusOr<NodeEvaluation> EncodedNodeEvaluator::Release(
    const LatticeNode& node, int k, const SuppressionBudget& budget,
    std::string algorithm) const {
  MDC_ASSIGN_OR_RETURN(Evaluation evaluation, Evaluate(node, k, budget));
  if (!evaluation.feasible) {
    return Status::FailedPrecondition(
        algorithm + ": node " + Lattice::ToString(node) + " is not " +
        std::to_string(k) +
        "-anonymous within the suppression budget; the checkpoint does not "
        "match this data or k");
  }
  return Materialize(node, evaluation, std::move(algorithm));
}

StatusOr<EncodedNodeEvaluator::Candidate>
EncodedNodeEvaluator::MaterializeUnsuppressed(const LatticeNode& node,
                                              std::string algorithm) const {
  MDC_RETURN_IF_ERROR(ValidateNode(node));
  const size_t rows = bundle_->view.row_count();
  std::vector<std::vector<uint32_t>> label_cols;
  std::vector<uint32_t> cards;
  const std::vector<std::span<const uint32_t>> spans =
      GatherLabelCodes(node, label_cols, cards);
  Evaluation raw;
  raw.partition = EquivalencePartition::FromCodeColumns(rows, spans, cards);
  MDC_ASSIGN_OR_RETURN(NodeEvaluation materialized,
                       Materialize(node, raw, std::move(algorithm)));
  return Candidate{std::move(materialized.anonymization),
                   std::move(materialized.partition)};
}

}  // namespace mdc
