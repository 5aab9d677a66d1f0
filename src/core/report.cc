#include "core/report.h"

#include "common/failpoint.h"
#include "common/text_table.h"
#include "core/compare_engine.h"
#include "core/r_property.h"
#include "privacy/privacy_model.h"

namespace mdc {
namespace {

ComparatorOutcome DominanceOutcome(DominanceRelation relation) {
  switch (relation) {
    case DominanceRelation::kEqual:
      return ComparatorOutcome::kEquivalent;
    case DominanceRelation::kFirstDominates:
      return ComparatorOutcome::kFirstBetter;
    case DominanceRelation::kSecondDominates:
      return ComparatorOutcome::kSecondBetter;
    case DominanceRelation::kIncomparable:
      break;
  }
  return ComparatorOutcome::kIncomparable;
}

}  // namespace

StatusOr<ComparisonReport> CompareAnonymizations(
    const Anonymization& first, const EquivalencePartition& first_partition,
    const Anonymization& second,
    const EquivalencePartition& second_partition,
    const ComparisonOptions& options, RunContext* run) {
  MDC_RETURN_IF_ERROR(RunContext::Check(run));
  MDC_FAILPOINT("report.compare");
  if (first.row_count() != second.row_count()) {
    return Status::InvalidArgument(
        "anonymizations cover data sets of different sizes");
  }
  if (first.row_count() == 0) {
    return Status::InvalidArgument("empty anonymizations");
  }

  // The Def.-2 properties; class size comes first, so it is property 0.
  std::vector<PropertyExtractor> extractors = {ClassSizeExtractor()};
  auto sensitive_column = ResolveSensitiveColumn(
      first.original->schema(), options.sensitive_column);
  if (sensitive_column.ok()) {
    extractors.push_back(SensitiveRarityExtractor(*sensitive_column));
  } else if (options.sensitive_column.has_value()) {
    return sensitive_column.status();
  }
  extractors.push_back(UtilityExtractor());
  MDC_ASSIGN_OR_RETURN(PropertySet first_set,
                       InduceProperties(first, first_partition, extractors));
  MDC_ASSIGN_OR_RETURN(
      PropertySet second_set,
      InduceProperties(second, second_partition, extractors));

  // One step per property, all charged before the first comparison, so a
  // budget never leaves a partly scored report.
  for (size_t p = 0; p < extractors.size(); ++p) {
    MDC_RETURN_IF_ERROR(RunContext::Check(run));
  }

  ComparisonReport report;
  report.first_name =
      first.algorithm.empty() ? "first" : first.algorithm;
  report.second_name =
      second.algorithm.empty() ? "second" : second.algorithm;
  if (report.first_name == report.second_name) {
    report.first_name += "#1";
    report.second_name += "#2";
  }
  report.first_bias = ComputeBias(first_set[0]);
  report.second_bias = ComputeBias(second_set[0]);

  for (size_t p = 0; p < extractors.size(); ++p) {
    const std::string& property = extractors[p].name;
    PropertySet pair_set;  // Moved in, not copied: FromSet packs it.
    pair_set.push_back(std::move(first_set[p]));
    pair_set.push_back(std::move(second_set[p]));
    MDC_ASSIGN_OR_RETURN(PropertyMatrix matrix,
                         PropertyMatrix::FromSet(pair_set));
    AllPairsOptions pair_options;
    if (p == 0) {
      // Class size is ranked against the fully-linked table (all N).
      pair_options.d_max = PropertyVector(
          "ideal", std::vector<double>(matrix.cols(),
                                       static_cast<double>(matrix.cols())));
    }
    MDC_ASSIGN_OR_RETURN(AllPairsResult ranked,
                         AllPairsCompare(matrix, pair_options));
    const PairComparison& pair = ranked.pairs[0];
    auto add = [&](const char* comparator, ComparatorOutcome outcome) {
      if (outcome == ComparatorOutcome::kFirstBetter) ++report.net_score;
      if (outcome == ComparatorOutcome::kSecondBetter) --report.net_score;
      report.verdicts.push_back({property, comparator, outcome});
    };
    // StandardComparators' order: dominance, min, rank, cov, spr.
    add("dominance", DominanceOutcome(pair.relation));
    add("min-better", OutcomeFromScalars(pair.min1, pair.min2));
    if (p == 0) {
      // Lower rank (closer to the ideal) is better: flip the scalar order.
      add("rank-better", OutcomeFromScalars(-pair.rank1, -pair.rank2));
    }
    add("cov-better", OutcomeFromScalars(pair.cov12, pair.cov21));
    add("spr-better", OutcomeFromScalars(pair.spr12, pair.spr21));
    report.properties.push_back(property);
  }
  return report;
}

std::string ComparisonReport::ToText() const {
  TextTable table;
  table.SetHeader({"property", "comparator", "verdict"});
  for (const ComparatorVerdict& verdict : verdicts) {
    std::string outcome;
    switch (verdict.outcome) {
      case ComparatorOutcome::kFirstBetter:
        outcome = first_name;
        break;
      case ComparatorOutcome::kSecondBetter:
        outcome = second_name;
        break;
      default:
        outcome = ComparatorOutcomeName(verdict.outcome);
        break;
    }
    table.AddRow({verdict.property, verdict.comparator, std::move(outcome)});
  }
  std::string out = "comparison: " + first_name + " vs " + second_name + "\n";
  out += table.Render();
  out += "bias(" + first_name + "):  " + first_bias.ToString() + "\n";
  out += "bias(" + second_name + "): " + second_bias.ToString() + "\n";
  out += "net score: " + std::to_string(net_score) + " (positive favors " +
         first_name + ")\n";
  return out;
}

}  // namespace mdc
