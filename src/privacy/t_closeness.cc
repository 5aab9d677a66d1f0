#include "privacy/t_closeness.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <string>

#include "common/strings.h"

namespace mdc {

double EarthMoversDistance(const std::vector<double>& p,
                           const std::vector<double>& q,
                           GroundDistance ground) {
  MDC_CHECK_EQ(p.size(), q.size());
  MDC_CHECK(!p.empty());
  if (p.size() == 1) return 0.0;
  if (ground == GroundDistance::kEqual) {
    double sum = 0.0;
    for (size_t i = 0; i < p.size(); ++i) sum += std::abs(p[i] - q[i]);
    return 0.5 * sum;
  }
  // Ordered: cumulative formula with unit spacing normalized by (m - 1).
  double cumulative = 0.0;
  double sum = 0.0;
  for (size_t i = 0; i + 1 < p.size(); ++i) {
    cumulative += p[i] - q[i];
    sum += std::abs(cumulative);
  }
  return sum / static_cast<double>(p.size() - 1);
}

StatusOr<std::vector<double>> EmdPerClass(
    const Anonymization& anonymization, const EquivalencePartition& partition,
    GroundDistance ground, std::optional<size_t> sensitive_column) {
  MDC_ASSIGN_OR_RETURN(size_t column,
                       ResolveSensitiveColumn(anonymization.release.schema(),
                                              sensitive_column));
  // The support is the codes 0..D-1 of the value-ordered view: text order
  // for a string column, value order for a number column. Both grounds
  // sum over it in that order. The global counts are the classes' counts
  // summed (exactly: they are integers).
  const SensitiveCodeCounts sensitive =
      CountSensitive(anonymization, partition, column);
  const ClassCodeCounts& counts = sensitive.per_class;
  const double total = static_cast<double>(anonymization.release.row_count());
  std::vector<double> global_p(sensitive.view.distinct_values(0).size(), 0.0);
  for (size_t i = 0; i < counts.codes.size(); ++i) {
    global_p[counts.codes[i]] += static_cast<double>(counts.counts[i]);
  }
  for (double& p : global_p) p /= total;

  std::vector<double> out;
  std::vector<double> class_p(global_p.size(), 0.0);
  for (size_t class_id = 0; class_id < partition.class_count(); ++class_id) {
    if (!ClassIsActive(partition, class_id, anonymization.suppressed)) {
      continue;
    }
    const std::span<const uint32_t> codes = counts.codes_of(class_id);
    const std::span<const size_t> of_class = counts.counts_of(class_id);
    const double size = static_cast<double>(partition.ClassSize(class_id));
    for (size_t i = 0; i < codes.size(); ++i) {
      class_p[codes[i]] = static_cast<double>(of_class[i]) / size;
    }
    out.push_back(EarthMoversDistance(class_p, global_p, ground));
    for (uint32_t code : codes) class_p[code] = 0.0;
  }
  return out;
}

StatusOr<std::vector<double>> HierarchicalEmdPerClass(
    const Anonymization& anonymization, const EquivalencePartition& partition,
    const TaxonomyHierarchy& taxonomy,
    std::optional<size_t> sensitive_column) {
  MDC_ASSIGN_OR_RETURN(size_t column,
                       ResolveSensitiveColumn(anonymization.release.schema(),
                                              sensitive_column));
  const SensitiveCodeCounts sensitive =
      CountSensitive(anonymization, partition, column);
  // The taxonomy names its leaves by text, so each code becomes its
  // value's printed form here, at the boundary. Masses are summed as
  // counts and divided once: over every class's entries they sum to the
  // global distribution.
  const std::vector<Value>& values = sensitive.view.distinct_values(0);
  auto distribution = [&values](std::span<const uint32_t> codes,
                                std::span<const size_t> counts,
                                double total) {
    std::map<std::string, double> p;
    for (size_t i = 0; i < codes.size(); ++i) {
      p[values[codes[i]].ToString()] += static_cast<double>(counts[i]);
    }
    for (auto& [leaf, mass] : p) mass /= total;
    return p;
  };
  const ClassCodeCounts& counts = sensitive.per_class;
  const std::map<std::string, double> global_p =
      distribution(counts.codes, counts.counts,
                   static_cast<double>(anonymization.release.row_count()));

  std::vector<double> out;
  for (size_t class_id = 0; class_id < partition.class_count(); ++class_id) {
    if (!ClassIsActive(partition, class_id, anonymization.suppressed)) {
      continue;
    }
    MDC_ASSIGN_OR_RETURN(
        double emd,
        taxonomy.HierarchicalEmd(
            distribution(counts.codes_of(class_id), counts.counts_of(class_id),
                         static_cast<double>(partition.ClassSize(class_id))),
            global_p));
    out.push_back(emd);
  }
  return out;
}

std::string TClosenessHierarchical::Name() const {
  return "t-closeness(" + FormatCompact(t_) + ",hierarchical)";
}

bool TClosenessHierarchical::Satisfies(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) const {
  return Measure(anonymization, partition) <= t_ + 1e-12;
}

double TClosenessHierarchical::Measure(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) const {
  auto emds = HierarchicalEmdPerClass(anonymization, partition, *taxonomy_,
                                      sensitive_column_);
  MDC_CHECK_MSG(emds.ok(),
                "hierarchical t-closeness misconfigured (sensitive column "
                "or taxonomy mismatch)");
  if (emds->empty()) return 0.0;
  return *std::max_element(emds->begin(), emds->end());
}

std::string TCloseness::Name() const {
  return std::string("t-closeness(") + FormatCompact(t_) + "," +
         (ground_ == GroundDistance::kEqual ? "equal" : "ordered") + ")";
}

bool TCloseness::Satisfies(const Anonymization& anonymization,
                           const EquivalencePartition& partition) const {
  return Measure(anonymization, partition) <= t_ + 1e-12;
}

double TCloseness::Measure(const Anonymization& anonymization,
                           const EquivalencePartition& partition) const {
  auto emds = EmdPerClass(anonymization, partition, ground_,
                          sensitive_column_);
  MDC_CHECK(emds.ok());
  if (emds->empty()) return 0.0;
  return *std::max_element(emds->begin(), emds->end());
}

}  // namespace mdc
