#include "privacy/t_closeness.h"

#include <algorithm>
#include <cmath>

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
  // Global support, keyed by printed value. The ordered ground distance
  // spaces it in the column's order: as text for a string column (the
  // map's order), by value for a number column. The equal ground keeps the
  // map's order, and with it the order of its sum.
  std::map<std::string, size_t> counted =
      GlobalSensitiveCounts(anonymization, column);
  std::vector<std::pair<std::string, size_t>> global(counted.begin(),
                                                     counted.end());
  const AttributeType type =
      anonymization.original->schema().attribute(column).type;
  if (ground == GroundDistance::kOrdered && type != AttributeType::kString) {
    auto number = [type](const std::string& text) {
      return *Value::Parse(text, type);
    };
    std::stable_sort(global.begin(), global.end(),
                     [&number](const auto& a, const auto& b) {
                       return number(a.first) < number(b.first);
                     });
  }
  std::vector<std::string> support;
  std::vector<double> global_p;
  double total = static_cast<double>(anonymization.release.row_count());
  for (const auto& [value, count] : global) {
    support.push_back(value);
    global_p.push_back(static_cast<double>(count) / total);
  }

  std::vector<double> out;
  for (size_t class_id = 0; class_id < partition.class_count(); ++class_id) {
    if (!ClassIsActive(partition, class_id, anonymization.suppressed)) {
      continue;
    }
    std::map<std::string, size_t> counts =
        SensitiveCounts(anonymization, partition, class_id, column);
    double class_total =
        static_cast<double>(partition.ClassSize(class_id));
    std::vector<double> class_p(support.size(), 0.0);
    for (size_t i = 0; i < support.size(); ++i) {
      auto it = counts.find(support[i]);
      if (it != counts.end()) {
        class_p[i] = static_cast<double>(it->second) / class_total;
      }
    }
    out.push_back(EarthMoversDistance(class_p, global_p, ground));
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
  std::map<std::string, size_t> global =
      GlobalSensitiveCounts(anonymization, column);
  std::map<std::string, double> global_p;
  double total = static_cast<double>(anonymization.release.row_count());
  for (const auto& [value, count] : global) {
    global_p[value] = static_cast<double>(count) / total;
  }

  std::vector<double> out;
  for (size_t class_id = 0; class_id < partition.class_count(); ++class_id) {
    if (!ClassIsActive(partition, class_id, anonymization.suppressed)) {
      continue;
    }
    std::map<std::string, size_t> counts =
        SensitiveCounts(anonymization, partition, class_id, column);
    std::map<std::string, double> class_p;
    double class_total = static_cast<double>(partition.ClassSize(class_id));
    for (const auto& [value, count] : counts) {
      class_p[value] = static_cast<double>(count) / class_total;
    }
    MDC_ASSIGN_OR_RETURN(double emd,
                         taxonomy.HierarchicalEmd(class_p, global_p));
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
