#include "core/report.h"

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/text_table.h"
#include "core/compare_engine.h"
#include "core/properties.h"
#include "privacy/privacy_model.h"
#include "utility/loss_metric.h"

namespace mdc {
namespace {

struct NamedProperty {
  std::string name;
  PropertyVector first;
  PropertyVector second;
};

const PropertyVector kNoIdeal;

// Sweeps the equivalent of StandardComparators(ideal,
// /*include_hypervolume=*/false) over one property: same comparator
// names, same order, same outcomes, from one fused kernel pass.
std::vector<ComparatorVerdict> PackedBattery(const NamedProperty& property,
                                             const PropertyVector& ideal) {
  const size_t n = property.first.size();
  const double* d1 = property.first.values().data();
  const double* d2 = property.second.values().data();
  PairwiseStats stats = ComputePairwiseStats(d1, d2, n);

  std::vector<ComparatorVerdict> verdicts;
  auto add = [&](const char* comparator, ComparatorOutcome outcome) {
    verdicts.push_back({property.name, comparator, outcome});
  };
  ComparatorOutcome dominance = ComparatorOutcome::kIncomparable;
  switch (RelationFromStats(stats)) {
    case DominanceRelation::kEqual:
      dominance = ComparatorOutcome::kEquivalent;
      break;
    case DominanceRelation::kFirstDominates:
      dominance = ComparatorOutcome::kFirstBetter;
      break;
    case DominanceRelation::kSecondDominates:
      dominance = ComparatorOutcome::kSecondBetter;
      break;
    case DominanceRelation::kIncomparable:
      dominance = ComparatorOutcome::kIncomparable;
      break;
  }
  add("dominance", dominance);
  add("min-better", OutcomeFromScalars(stats.min1, stats.min2));
  if (!ideal.empty()) {
    double rank1 = PackedRankIndex(d1, ideal.values().data(), n);
    double rank2 = PackedRankIndex(d2, ideal.values().data(), n);
    // Lower rank (closer to the ideal) is better: flip the scalar order.
    add("rank-better", OutcomeFromScalars(-rank1, -rank2));
  }
  add("cov-better",
      OutcomeFromScalars(CoverageFromStats(stats, n, /*forward=*/true),
                         CoverageFromStats(stats, n, /*forward=*/false)));
  add("spr-better", OutcomeFromScalars(stats.spr12, stats.spr21));
  return verdicts;
}

StatusOr<PropertyVector> UtilityVector(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) {
  if (anonymization.scheme.has_value()) {
    return LossMetric::PerTupleUtility(anonymization);
  }
  return ClassSpreadLoss::PerTupleUtility(anonymization, partition);
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

  std::vector<NamedProperty> properties;
  PropertyVector first_sizes = EquivalenceClassSizeVector(first_partition);
  PropertyVector second_sizes = EquivalenceClassSizeVector(second_partition);
  properties.push_back({"equivalence-class-size", first_sizes, second_sizes});

  // Diversity property: count of the tuple's sensitive value in its class,
  // negated so that higher is better (rarer value in class = harder to
  // infer).
  auto sensitive_column = ResolveSensitiveColumn(
      first.original->schema(), options.sensitive_column);
  if (sensitive_column.ok()) {
    MDC_ASSIGN_OR_RETURN(
        PropertyVector first_counts,
        SensitiveCountVector(first, first_partition, *sensitive_column));
    MDC_ASSIGN_OR_RETURN(
        PropertyVector second_counts,
        SensitiveCountVector(second, second_partition, *sensitive_column));
    properties.push_back({"sensitive-rarity",
                          first_counts.Negated("sensitive-rarity"),
                          second_counts.Negated("sensitive-rarity")});
  } else if (options.sensitive_column.has_value()) {
    return sensitive_column.status();
  }

  MDC_ASSIGN_OR_RETURN(PropertyVector first_utility,
                       UtilityVector(first, first_partition));
  MDC_ASSIGN_OR_RETURN(PropertyVector second_utility,
                       UtilityVector(second, second_partition));
  properties.push_back({"per-tuple-utility", std::move(first_utility),
                        std::move(second_utility)});

  ComparisonReport report;
  report.first_name =
      first.algorithm.empty() ? "first" : first.algorithm;
  report.second_name =
      second.algorithm.empty() ? "second" : second.algorithm;
  if (report.first_name == report.second_name) {
    report.first_name += "#1";
    report.second_name += "#2";
  }
  report.first_bias = ComputeBias(first_sizes);
  report.second_bias = ComputeBias(second_sizes);

  // Rank ideal: the class-size vector of the fully-linked table (all N).
  const PropertyVector d_max(
      "ideal", std::vector<double>(first.row_count(),
                                   static_cast<double>(first.row_count())));

  // Wave protocol across properties: admit (budget charges in property
  // order), evaluate batteries in parallel into per-property slots, commit
  // verdicts, counters, and the net score serially in order.
  for (size_t i = 0; i < properties.size(); ++i) {
    MDC_RETURN_IF_ERROR(RunContext::Check(run));
  }
  MDC_METRIC_INC("cmp.runs");
  std::vector<std::vector<ComparatorVerdict>> slots(properties.size());
  ThreadPool pool(ThreadPool::ResolveThreadCount(options.threads));
  pool.ParallelFor(properties.size(), [&](size_t i) {
    // The rank ideal only makes sense for the class-size property.
    const PropertyVector& ideal =
        properties[i].name == "equivalence-class-size" ? d_max : kNoIdeal;
    slots[i] = PackedBattery(properties[i], ideal);
  });
  for (size_t i = 0; i < properties.size(); ++i) {
    report.properties.push_back(properties[i].name);
    DominanceRelation relation = DominanceRelation::kIncomparable;
    for (const ComparatorVerdict& verdict : slots[i]) {
      if (verdict.comparator == "dominance") {
        switch (verdict.outcome) {
          case ComparatorOutcome::kEquivalent:
            relation = DominanceRelation::kEqual;
            break;
          case ComparatorOutcome::kFirstBetter:
            relation = DominanceRelation::kFirstDominates;
            break;
          case ComparatorOutcome::kSecondBetter:
            relation = DominanceRelation::kSecondDominates;
            break;
          default:
            relation = DominanceRelation::kIncomparable;
            break;
        }
      }
      if (verdict.outcome == ComparatorOutcome::kFirstBetter) {
        ++report.net_score;
      }
      if (verdict.outcome == ComparatorOutcome::kSecondBetter) {
        --report.net_score;
      }
      report.verdicts.push_back(verdict);
    }
    CommitComparisonMetrics(relation, properties[i].first.size());
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
