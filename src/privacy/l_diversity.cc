#include "privacy/l_diversity.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/strings.h"

namespace mdc {
namespace {

// Each active class's sensitive counts, in code order (value order).
StatusOr<std::vector<std::vector<size_t>>> CountsPerActiveClass(
    const Anonymization& anonymization, const EquivalencePartition& partition,
    std::optional<size_t> sensitive_column) {
  MDC_ASSIGN_OR_RETURN(size_t column,
                       ResolveSensitiveColumn(anonymization.release.schema(),
                                              sensitive_column));
  const ClassCodeCounts counts =
      CountSensitive(anonymization, partition, column).per_class;
  std::vector<std::vector<size_t>> out;
  for (size_t class_id = 0; class_id < partition.class_count(); ++class_id) {
    if (ClassIsActive(partition, class_id, anonymization.suppressed)) {
      const std::span<const size_t> of_class = counts.counts_of(class_id);
      out.emplace_back(of_class.begin(), of_class.end());
    }
  }
  return out;
}

}  // namespace

StatusOr<std::vector<size_t>> DistinctSensitivePerClass(
    const Anonymization& anonymization, const EquivalencePartition& partition,
    std::optional<size_t> sensitive_column) {
  MDC_ASSIGN_OR_RETURN(
      auto classes,
      CountsPerActiveClass(anonymization, partition, sensitive_column));
  std::vector<size_t> out;
  for (const std::vector<size_t>& counts : classes) {
    out.push_back(counts.size());
  }
  return out;
}

StatusOr<std::vector<double>> SensitiveEntropyPerClass(
    const Anonymization& anonymization, const EquivalencePartition& partition,
    std::optional<size_t> sensitive_column) {
  MDC_ASSIGN_OR_RETURN(
      auto classes,
      CountsPerActiveClass(anonymization, partition, sensitive_column));
  std::vector<double> out;
  for (const std::vector<size_t>& counts : classes) {
    double total = 0.0;
    for (size_t count : counts) total += static_cast<double>(count);
    double entropy = 0.0;
    for (size_t count : counts) {
      double p = static_cast<double>(count) / total;
      entropy -= p * std::log(p);
    }
    out.push_back(entropy);
  }
  return out;
}

bool DistinctLDiversity::Satisfies(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) const {
  return Measure(anonymization, partition) >= static_cast<double>(l_);
}

double DistinctLDiversity::Measure(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) const {
  auto distinct =
      DistinctSensitivePerClass(anonymization, partition, sensitive_column_);
  MDC_CHECK(distinct.ok());
  if (distinct->empty()) return std::numeric_limits<double>::infinity();
  return static_cast<double>(
      *std::min_element(distinct->begin(), distinct->end()));
}

std::string EntropyLDiversity::Name() const {
  return "entropy-l-diversity(" + FormatCompact(l_) + ")";
}

bool EntropyLDiversity::Satisfies(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) const {
  return Measure(anonymization, partition) >= l_ - 1e-12;
}

double EntropyLDiversity::Measure(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) const {
  auto entropies =
      SensitiveEntropyPerClass(anonymization, partition, sensitive_column_);
  MDC_CHECK(entropies.ok());
  if (entropies->empty()) return std::numeric_limits<double>::infinity();
  double min_entropy =
      *std::min_element(entropies->begin(), entropies->end());
  return std::exp(min_entropy);
}

std::string RecursiveCLDiversity::Name() const {
  return "recursive-(" + FormatCompact(c_) + "," + std::to_string(l_) +
         ")-diversity";
}

bool RecursiveCLDiversity::Satisfies(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) const {
  return Measure(anonymization, partition) >= static_cast<double>(l_);
}

double RecursiveCLDiversity::Measure(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) const {
  auto classes =
      CountsPerActiveClass(anonymization, partition, sensitive_column_);
  MDC_CHECK_MSG(classes.ok(),
                "l-diversity model used without a resolvable sensitive "
                "column");
  if (classes->empty()) return std::numeric_limits<double>::infinity();

  // For one class, the largest l' satisfying r_1 < c * sum_{i>=l'} r_i
  // over its counts sorted descending.
  auto max_l_for_class = [&](std::vector<size_t> counts) -> int {
    std::sort(counts.begin(), counts.end(), std::greater<size_t>());
    const size_t m = counts.size();
    double r1 = static_cast<double>(counts[0]);
    double tail = 0.0;
    int best = 0;
    // Walk l' from m down to 1, accumulating the tail sum.
    for (size_t lp = m; lp >= 1; --lp) {
      tail += static_cast<double>(counts[lp - 1]);
      if (r1 < c_ * tail) {
        best = static_cast<int>(lp);
        break;
      }
    }
    return best;  // 0 means not even (c,1)-diverse (impossible if c > 1).
  };

  int min_l = 0;
  bool first = true;
  for (const std::vector<size_t>& counts : *classes) {
    int l = max_l_for_class(counts);
    if (first || l < min_l) {
      min_l = l;
      first = false;
    }
  }
  return static_cast<double>(min_l);
}

}  // namespace mdc
