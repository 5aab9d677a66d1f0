// Differential and definition oracle for the per-class statistics of the
// original data: EquivalencePartition::CountCodes and CountSensitive, and
// every reader ported onto them — distinct, entropy and recursive
// ℓ-diversity, p-sensitivity, both t-closeness EMDs, the hierarchical EMD,
// the sensitive-count vector, personalized breach probabilities,
// class-spread loss, LM and entropy loss, and the query-error estimate.
//
// Two references:
//  - The string-keyed implementation these replaced, kept here in
//    test-local form: each class's sensitive values counted into a
//    std::map<std::string, size_t> keyed by the dictionary string or by
//    Value::ToString, the ordered EMD's support re-sorted through
//    Value::Parse, per-type branches for the count vector and breach
//    probabilities, a per-class sort/unique for class spread and query
//    estimates, and Dataset::DistinctValues (sort and unique every cell).
//    On string sensitive columns every output must equal it, doubles bit
//    for bit. On int columns counts, distinct counts, recursive ℓ, ordered
//    EMDs and the count vector must equal it; entropies and equal-ground
//    EMDs sum in value order instead of printed-text order and must agree
//    within 1e-15 relative. Real columns whose values print distinctly
//    are held to the int rule; the two declared real cases (−0 with +0,
//    reals that print alike) are pinned on their own.
//  - The definitions over (rows, partition), after A-COMPASS
//    (arXiv:2606.20492): each active class's sensitive Values counted in
//    value order, then distinct ℓ, entropy ℓ, recursive (c,ℓ),
//    p-sensitivity, the equal and ordered EMDs, the count vector and
//    class spread transcribed from their formulas. Every type must equal
//    them exactly.
//
// The partitions come from Mondrian, from Datafly under a suppression
// budget (so whole classes are suppressed), from FromCodeColumns over
// random keys with random suppression, and from the paper's Table 1
// releases with Marital Status as both a QI and the sensitive column.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "anonymize/datafly.h"
#include "anonymize/equivalence.h"
#include "anonymize/mondrian.h"
#include "common/rng.h"
#include "core/properties.h"
#include "coverage_reference.h"
#include "hierarchy/interval_hierarchy.h"
#include "hierarchy/suffix_hierarchy.h"
#include "hierarchy/taxonomy_hierarchy.h"
#include "paper/paper_data.h"
#include "privacy/l_diversity.h"
#include "privacy/p_sensitive.h"
#include "privacy/personalized.h"
#include "privacy/t_closeness.h"
#include "utility/entropy_loss.h"
#include "utility/loss_metric.h"
#include "utility/query_error.h"

namespace mdc {
namespace {

// ---------------------------------------------------------- reference --
// The string-keyed per-class statistics, as they were before CountCodes.

template <typename Rows>
std::map<std::string, size_t> RefCount(const Dataset& data, size_t column,
                                       const Rows& rows) {
  std::map<std::string, size_t> counts;
  if (data.schema().attribute(column).type == AttributeType::kString) {
    const std::vector<std::string>& dictionary = data.dictionary(column);
    const std::span<const uint32_t> codes = data.codes(column);
    for (size_t row : rows) ++counts[dictionary[codes[row]]];
  } else {
    for (size_t row : rows) ++counts[data.cell(row, column).ToString()];
  }
  return counts;
}

std::map<std::string, size_t> RefSensitiveCounts(
    const Anonymization& anonymization, const EquivalencePartition& partition,
    size_t class_id, size_t column) {
  return RefCount(*anonymization.original, column,
                  partition.class_members(class_id));
}

std::map<std::string, size_t> RefGlobalSensitiveCounts(
    const Anonymization& anonymization, size_t column) {
  return RefCount(
      *anonymization.original, column,
      std::views::iota(size_t{0}, anonymization.original->row_count()));
}

std::vector<std::map<std::string, size_t>> RefActiveCounts(
    const Anonymization& anonymization, const EquivalencePartition& partition,
    size_t column) {
  std::vector<std::map<std::string, size_t>> out;
  for (size_t c = 0; c < partition.class_count(); ++c) {
    if (!ClassIsActive(partition, c, anonymization.suppressed)) continue;
    out.push_back(RefSensitiveCounts(anonymization, partition, c, column));
  }
  return out;
}

std::vector<size_t> RefDistinct(const Anonymization& anonymization,
                                const EquivalencePartition& partition,
                                size_t column) {
  std::vector<size_t> out;
  for (const auto& counts : RefActiveCounts(anonymization, partition, column)) {
    out.push_back(counts.size());
  }
  return out;
}

std::vector<double> RefEntropy(const Anonymization& anonymization,
                               const EquivalencePartition& partition,
                               size_t column) {
  std::vector<double> out;
  for (const auto& counts : RefActiveCounts(anonymization, partition, column)) {
    double total = 0.0;
    for (const auto& [value, count] : counts) {
      total += static_cast<double>(count);
    }
    double entropy = 0.0;
    for (const auto& [value, count] : counts) {
      double p = static_cast<double>(count) / total;
      entropy -= p * std::log(p);
    }
    out.push_back(entropy);
  }
  return out;
}

// The largest l' with r_1 < c * sum_{i>=l'} r_i over each class's counts
// sorted descending; the minimum over active classes.
double RefRecursive(const Anonymization& anonymization,
                    const EquivalencePartition& partition, double c,
                    size_t column) {
  std::vector<std::vector<size_t>> classes;
  for (const auto& counts : RefActiveCounts(anonymization, partition, column)) {
    std::vector<size_t> sorted;
    for (const auto& [value, count] : counts) sorted.push_back(count);
    std::sort(sorted.begin(), sorted.end(), std::greater<size_t>());
    classes.push_back(std::move(sorted));
  }
  if (classes.empty()) return std::numeric_limits<double>::infinity();
  int min_l = 0;
  bool first = true;
  for (const std::vector<size_t>& counts : classes) {
    double r1 = static_cast<double>(counts[0]);
    double tail = 0.0;
    int best = 0;
    for (size_t lp = counts.size(); lp >= 1; --lp) {
      tail += static_cast<double>(counts[lp - 1]);
      if (r1 < c * tail) {
        best = static_cast<int>(lp);
        break;
      }
    }
    if (first || best < min_l) {
      min_l = best;
      first = false;
    }
  }
  return static_cast<double>(min_l);
}

std::vector<double> RefEmd(const Anonymization& anonymization,
                           const EquivalencePartition& partition,
                           GroundDistance ground, size_t column) {
  std::map<std::string, size_t> counted =
      RefGlobalSensitiveCounts(anonymization, column);
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
        RefSensitiveCounts(anonymization, partition, class_id, column);
    double class_total = static_cast<double>(partition.ClassSize(class_id));
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

std::vector<double> RefHierarchicalEmd(const Anonymization& anonymization,
                                       const EquivalencePartition& partition,
                                       const TaxonomyHierarchy& taxonomy,
                                       size_t column) {
  std::map<std::string, size_t> global =
      RefGlobalSensitiveCounts(anonymization, column);
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
        RefSensitiveCounts(anonymization, partition, class_id, column);
    std::map<std::string, double> class_p;
    double class_total = static_cast<double>(partition.ClassSize(class_id));
    for (const auto& [value, count] : counts) {
      class_p[value] = static_cast<double>(count) / class_total;
    }
    auto emd = taxonomy.HierarchicalEmd(class_p, global_p);
    MDC_CHECK(emd.ok());
    out.push_back(*emd);
  }
  return out;
}

std::vector<double> RefSensitiveCountVector(
    const Anonymization& anonymization, const EquivalencePartition& partition,
    size_t column) {
  const Dataset& original = *anonymization.original;
  const bool is_string =
      original.schema().attribute(column).type == AttributeType::kString;
  std::vector<double> counts(anonymization.row_count(), 0.0);
  for (size_t class_id = 0; class_id < partition.class_count(); ++class_id) {
    std::map<std::string, size_t> class_counts =
        RefSensitiveCounts(anonymization, partition, class_id, column);
    for (size_t row : partition.class_members(class_id)) {
      const size_t count =
          is_string
              ? class_counts.at(
                    original.dictionary(column)[original.codes(column)[row]])
              : class_counts.at(original.cell(row, column).ToString());
      counts[row] = static_cast<double>(count);
    }
  }
  return counts;
}

std::vector<double> RefBreach(const TaxonomyHierarchy& taxonomy,
                              const std::vector<std::string>& guards,
                              const Anonymization& anonymization,
                              const EquivalencePartition& partition,
                              size_t column) {
  const Dataset& original = *anonymization.original;
  std::vector<Value> by_code;
  std::span<const uint32_t> codes;
  if (original.schema().attribute(column).type == AttributeType::kString) {
    for (const std::string& entry : original.dictionary(column)) {
      by_code.emplace_back(entry);
    }
    codes = original.codes(column);
  }
  std::vector<double> breach(anonymization.row_count(), 0.0);
  for (size_t row = 0; row < anonymization.row_count(); ++row) {
    if (anonymization.suppressed[row]) continue;
    ClassSpan members = partition.class_members(partition.ClassOfRow(row));
    size_t guarded = 0;
    for (size_t member : members) {
      const bool covered =
          codes.empty()
              ? taxonomy.Covers(guards[row], original.cell(member, column))
              : taxonomy.Covers(guards[row], by_code[codes[member]]);
      if (covered) ++guarded;
    }
    breach[row] =
        static_cast<double>(guarded) / static_cast<double>(members.size());
  }
  return breach;
}

std::vector<Value> RefDistinctValues(const Dataset& data, size_t column) {
  std::vector<Value> values;
  if (data.schema().attribute(column).type == AttributeType::kString) {
    const std::vector<std::string>& dictionary = data.dictionary(column);
    std::vector<bool> present(dictionary.size(), false);
    for (uint32_t code : data.codes(column)) present[code] = true;
    for (size_t code = 0; code < present.size(); ++code) {
      if (present[code]) values.emplace_back(dictionary[code]);
    }
  } else {
    for (size_t r = 0; r < data.row_count(); ++r) {
      values.push_back(data.cell(r, column));
    }
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

std::vector<double> RefClassSpread(const Anonymization& anonymization,
                                   const EquivalencePartition& partition) {
  const Dataset& original = *anonymization.original;
  std::vector<double> loss(anonymization.row_count(), 0.0);
  std::vector<uint32_t> distinct;
  for (size_t column : anonymization.qi_columns) {
    const bool is_string =
        original.schema().attribute(column).type == AttributeType::kString;
    double global_spread = 1.0;
    size_t global_distinct = RefDistinctValues(original, column).size();
    std::span<const uint32_t> codes;
    std::vector<double> numbers;
    if (is_string) {
      codes = original.codes(column);
    } else {
      auto range = original.NumericRange(column);
      MDC_CHECK(range.ok());
      global_spread = range->second - range->first;
      numbers = original.Numbers(column);
    }
    for (size_t class_id = 0; class_id < partition.class_count();
         ++class_id) {
      ClassSpan members = partition.class_members(class_id);
      double charge = 0.0;
      bool class_suppressed = true;
      for (size_t row : members) {
        if (!anonymization.suppressed[row]) {
          class_suppressed = false;
          break;
        }
      }
      if (class_suppressed) {
        charge = 1.0;
      } else if (is_string) {
        distinct.clear();
        for (size_t row : members) distinct.push_back(codes[row]);
        std::sort(distinct.begin(), distinct.end());
        const auto count = static_cast<size_t>(
            std::unique(distinct.begin(), distinct.end()) - distinct.begin());
        charge = global_distinct <= 1
                     ? 0.0
                     : static_cast<double>(count - 1) /
                           static_cast<double>(global_distinct - 1);
      } else {
        double lo = numbers[members[0]];
        double hi = lo;
        for (size_t row : members) {
          lo = std::min(lo, numbers[row]);
          hi = std::max(hi, numbers[row]);
        }
        charge = global_spread <= 0.0 ? 0.0 : (hi - lo) / global_spread;
      }
      for (size_t row : members) loss[row] += charge;
    }
  }
  return loss;
}

double RefEstimatedCount(const Anonymization& anonymization,
                         const EquivalencePartition& partition,
                         const RangeQuery& query) {
  const Dataset& original = *anonymization.original;
  const std::vector<double> values = original.Numbers(query.numeric_column);
  std::span<const uint32_t> codes;
  std::optional<uint32_t> wanted;
  if (query.categorical_column.has_value()) {
    codes = original.codes(*query.categorical_column);
    const std::vector<std::string>& dictionary =
        original.dictionary(*query.categorical_column);
    auto it = std::find(dictionary.begin(), dictionary.end(),
                        query.categorical_value);
    if (it != dictionary.end()) {
      wanted = static_cast<uint32_t>(it - dictionary.begin());
    }
  }
  std::vector<uint32_t> distinct;
  double estimate = 0.0;
  for (size_t class_id = 0; class_id < partition.class_count(); ++class_id) {
    ClassSpan members = partition.class_members(class_id);
    double lo = values[members[0]];
    double hi = lo;
    for (size_t row : members) {
      lo = std::min(lo, values[row]);
      hi = std::max(hi, values[row]);
    }
    double fraction = 0.0;
    if (lo == hi) {
      fraction = (lo >= query.lo && lo <= query.hi) ? 1.0 : 0.0;
    } else {
      double a = std::max(lo, query.lo);
      double b = std::min(hi, query.hi);
      fraction = b < a ? 0.0 : (b - a) / (hi - lo);
    }
    if (fraction <= 0.0) continue;
    if (query.categorical_column.has_value()) {
      distinct.clear();
      for (size_t row : members) distinct.push_back(codes[row]);
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      if (!wanted.has_value() ||
          !std::binary_search(distinct.begin(), distinct.end(), *wanted)) {
        continue;
      }
      fraction /= static_cast<double>(distinct.size());
    }
    estimate += fraction * static_cast<double>(members.size());
  }
  return estimate;
}

// LM and entropy loss with each column's present values listed by
// RefDistinctValues; each label's coverage is asked of every present
// value under the hierarchy's former rule (coverage_reference.h).
std::vector<double> RefLossMetric(const Anonymization& anonymization) {
  std::vector<double> loss(anonymization.row_count(), 0.0);
  for (size_t column : anonymization.qi_columns) {
    const ValueHierarchy* hierarchy =
        anonymization.scheme->hierarchies().ForColumn(column);
    const std::vector<Value> distinct =
        RefDistinctValues(*anonymization.original, column);
    for (size_t r = 0; r < anonymization.row_count(); ++r) {
      const std::string& label = anonymization.release.dictionary(
          column)[anonymization.release.codes(column)[r]];
      if (distinct.size() <= 1) continue;
      const size_t covered =
          coverage_reference::CoveredCount(*hierarchy, distinct, label);
      loss[r] += static_cast<double>(covered - 1) /
                 static_cast<double>(distinct.size() - 1);
    }
  }
  return loss;
}

std::vector<double> RefEntropyLoss(const Anonymization& anonymization) {
  const double qi = static_cast<double>(anonymization.qi_columns.size());
  std::vector<double> loss(anonymization.row_count(), 0.0);
  for (size_t column : anonymization.qi_columns) {
    const ValueHierarchy* hierarchy =
        anonymization.scheme->hierarchies().ForColumn(column);
    const std::vector<Value> distinct =
        RefDistinctValues(*anonymization.original, column);
    const double total = static_cast<double>(distinct.size());
    if (total <= 1.0) continue;
    const double denom = std::log2(total);
    for (size_t r = 0; r < anonymization.row_count(); ++r) {
      const std::string& label = anonymization.release.dictionary(
          column)[anonymization.release.codes(column)[r]];
      const size_t covered =
          coverage_reference::CoveredCount(*hierarchy, distinct, label);
      loss[r] += std::log2(static_cast<double>(covered)) / denom / qi;
    }
  }
  return loss;
}

// --------------------------------------------------------- definition --
// The models over (rows, partition): each active class's sensitive Values
// counted in value order.

std::map<Value, size_t> DefCounts(const Dataset& data, size_t column,
                                  ClassSpan members) {
  std::map<Value, size_t> counts;
  for (size_t row : members) ++counts[data.cell(row, column)];
  return counts;
}

struct Definitions {
  std::vector<size_t> distinct;
  std::vector<double> entropy;
  double recursive = std::numeric_limits<double>::infinity();
  std::vector<double> emd_equal;
  std::vector<double> emd_ordered;
  std::vector<double> count_vector;
  std::vector<double> class_spread;
};

Definitions Define(const Anonymization& anonymization,
                   const EquivalencePartition& partition, size_t column,
                   double c) {
  const Dataset& data = *anonymization.original;
  const double n = static_cast<double>(data.row_count());
  Definitions def;
  std::map<Value, size_t> global;
  for (size_t row = 0; row < data.row_count(); ++row) {
    ++global[data.cell(row, column)];
  }
  def.count_vector.assign(data.row_count(), 0.0);
  bool first = true;
  for (size_t class_id = 0; class_id < partition.class_count(); ++class_id) {
    const ClassSpan members = partition.class_members(class_id);
    const std::map<Value, size_t> counts = DefCounts(data, column, members);
    for (size_t row : members) {
      def.count_vector[row] =
          static_cast<double>(counts.at(data.cell(row, column)));
    }
    if (!ClassIsActive(partition, class_id, anonymization.suppressed)) {
      continue;
    }
    // Distinct ℓ: the number of distinct values.
    def.distinct.push_back(counts.size());
    // Entropy ℓ: -Σ p log p over the class's values.
    double total = 0.0;
    for (const auto& [value, count] : counts) {
      total += static_cast<double>(count);
    }
    double entropy = 0.0;
    for (const auto& [value, count] : counts) {
      const double p = static_cast<double>(count) / total;
      entropy -= p * std::log(p);
    }
    def.entropy.push_back(entropy);
    // Recursive (c,ℓ): the largest ℓ with r_1 < c (r_ℓ + ... + r_m).
    std::vector<size_t> r;
    for (const auto& [value, count] : counts) r.push_back(count);
    std::sort(r.begin(), r.end(), std::greater<size_t>());
    int l = 0;
    for (size_t lp = r.size(); lp >= 1 && l == 0; --lp) {
      double tail = 0.0;
      for (size_t i = r.size(); i >= lp; --i) {
        tail += static_cast<double>(r[i - 1]);
      }
      if (static_cast<double>(r[0]) < c * tail) l = static_cast<int>(lp);
    }
    if (first || l < def.recursive) def.recursive = l;
    first = false;
    // EMD to the global distribution over the support in value order:
    // equal ground (1/2) Σ |p_i - q_i|, ordered ground
    // (1/(m-1)) Σ_i |Σ_{j<=i} (p_j - q_j)|.
    const double size = static_cast<double>(members.size());
    double equal = 0.0;
    double cumulative = 0.0;
    double ordered = 0.0;
    size_t i = 0;
    for (const auto& [value, count] : global) {
      auto it = counts.find(value);
      const double p =
          it == counts.end() ? 0.0 : static_cast<double>(it->second) / size;
      const double q = static_cast<double>(count) / n;
      equal += std::abs(p - q);
      if (++i < global.size()) {
        cumulative += p - q;
        ordered += std::abs(cumulative);
      }
    }
    const bool single = global.size() == 1;
    def.emd_equal.push_back(single ? 0.0 : 0.5 * equal);
    def.emd_ordered.push_back(
        single ? 0.0 : ordered / static_cast<double>(global.size() - 1));
  }
  // Class spread: per QI, a suppressed class is charged 1; otherwise a
  // string column (values in class - 1)/(values in column - 1), a number
  // column (class max - class min)/(column max - column min).
  def.class_spread.assign(data.row_count(), 0.0);
  for (size_t qi : anonymization.qi_columns) {
    const bool is_string =
        data.schema().attribute(qi).type == AttributeType::kString;
    std::map<Value, size_t> all;
    for (size_t row = 0; row < data.row_count(); ++row) {
      ++all[data.cell(row, qi)];
    }
    const double spread = is_string || all.empty()
                              ? 0.0
                              : all.rbegin()->first.AsNumber() -
                                    all.begin()->first.AsNumber();
    for (size_t class_id = 0; class_id < partition.class_count();
         ++class_id) {
      const ClassSpan members = partition.class_members(class_id);
      const std::map<Value, size_t> in_class = DefCounts(data, qi, members);
      double charge = 1.0;
      if (ClassIsActive(partition, class_id, anonymization.suppressed)) {
        if (is_string) {
          charge = all.size() <= 1
                       ? 0.0
                       : static_cast<double>(in_class.size() - 1) /
                             static_cast<double>(all.size() - 1);
        } else {
          charge = spread <= 0.0 ? 0.0
                                 : (in_class.rbegin()->first.AsNumber() -
                                    in_class.begin()->first.AsNumber()) /
                                       spread;
        }
      }
      for (size_t row : members) def.class_spread[row] += charge;
    }
  }
  return def;
}

// ------------------------------------------------------------- checks --

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

// Both vectors bit for bit.
void ExpectBits(const std::vector<double>& got,
                const std::vector<double>& want, const char* what) {
  EXPECT_EQ(Bits(got), Bits(want)) << what;
}

void ExpectBits(double got, double want, const char* what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

// Summing the same non-negative terms in another order: within 1e-15
// relative.
void ExpectClose(const std::vector<double>& got,
                 const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_LE(std::abs(got[i] - want[i]),
              1e-15 * std::max(std::abs(got[i]), std::abs(want[i])))
        << what << " class " << i << ": " << got[i] << " vs " << want[i];
  }
}

// A taxonomy over the sensitive column's printed values: two groups under
// the root, every value a leaf.
std::shared_ptr<const TaxonomyHierarchy> SensitiveTaxonomy(
    const Dataset& data, size_t column) {
  std::vector<std::string> leaves;
  for (size_t row = 0; row < data.row_count(); ++row) {
    leaves.push_back(data.cell(row, column).ToString());
  }
  if (data.schema().attribute(column).type == AttributeType::kString) {
    const std::vector<std::string>& dictionary = data.dictionary(column);
    leaves.insert(leaves.end(), dictionary.begin(), dictionary.end());
  }
  std::sort(leaves.begin(), leaves.end());
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
  TaxonomyHierarchy::Builder builder;
  builder.Add("G0", "*").Add("G1", "*");
  for (size_t i = 0; i < leaves.size(); ++i) {
    builder.Add(leaves[i], i % 2 == 0 ? "G0" : "G1");
  }
  auto taxonomy = builder.Build();
  MDC_CHECK(taxonomy.ok());
  return std::make_shared<const TaxonomyHierarchy>(std::move(taxonomy).value());
}

// Every statistic of `anonymization` over `partition` against both
// references: a string sensitive column bit-identical to the string-keyed
// code, any other type under the int rule.
void CheckRelease(const Anonymization& anonymization,
                  const EquivalencePartition& partition, size_t column,
                  Rng& rng) {
  const AttributeType type =
      anonymization.original->schema().attribute(column).type;
  const bool exact = type == AttributeType::kString;

  // The kernel itself: ascending codes, counts that sum to class sizes.
  const SensitiveCodeCounts sensitive =
      CountSensitive(anonymization, partition, column);
  ASSERT_EQ(sensitive.per_class.offsets.size(), partition.class_count() + 1);
  for (size_t c = 0; c < partition.class_count(); ++c) {
    const auto codes = sensitive.per_class.codes_of(c);
    const auto counts = sensitive.per_class.counts_of(c);
    ASSERT_TRUE(std::is_sorted(codes.begin(), codes.end()));
    ASSERT_TRUE(std::adjacent_find(codes.begin(), codes.end()) == codes.end());
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), size_t{0}),
              partition.ClassSize(c));
  }

  auto distinct = DistinctSensitivePerClass(anonymization, partition, column);
  auto entropy = SensitiveEntropyPerClass(anonymization, partition, column);
  auto equal =
      EmdPerClass(anonymization, partition, GroundDistance::kEqual, column);
  auto ordered =
      EmdPerClass(anonymization, partition, GroundDistance::kOrdered, column);
  auto count_vector = SensitiveCountVector(anonymization, partition, column);
  ASSERT_TRUE(distinct.ok() && entropy.ok() && equal.ok() && ordered.ok() &&
              count_vector.ok());
  const double c = 1.0 + static_cast<double>(rng.NextBelow(4)) * 0.5;
  const double recursive =
      RecursiveCLDiversity(c, 2, column).Measure(anonymization, partition);

  // Against the string-keyed implementation.
  EXPECT_EQ(*distinct, RefDistinct(anonymization, partition, column));
  ExpectBits(recursive, RefRecursive(anonymization, partition, c, column),
             "recursive");
  ExpectBits(*ordered,
             RefEmd(anonymization, partition, GroundDistance::kOrdered,
                    column),
             "ordered emd");
  ExpectBits(count_vector->values(),
             RefSensitiveCountVector(anonymization, partition, column),
             "count vector");
  if (exact) {
    ExpectBits(*entropy, RefEntropy(anonymization, partition, column),
               "entropy");
    ExpectBits(*equal,
               RefEmd(anonymization, partition, GroundDistance::kEqual,
                      column),
               "equal emd");
  } else {
    ExpectClose(*entropy, RefEntropy(anonymization, partition, column),
                "entropy");
    ExpectClose(*equal,
                RefEmd(anonymization, partition, GroundDistance::kEqual,
                       column),
                "equal emd");
  }

  // The taxonomy-keyed readers: hierarchical EMD and breach probabilities.
  auto taxonomy = SensitiveTaxonomy(*anonymization.original, column);
  auto hierarchical =
      HierarchicalEmdPerClass(anonymization, partition, *taxonomy, column);
  ASSERT_TRUE(hierarchical.ok());
  ExpectBits(*hierarchical,
             RefHierarchicalEmd(anonymization, partition, *taxonomy, column),
             "hierarchical emd");
  const std::vector<std::string> nodes = [&] {
    std::vector<std::string> leaves = taxonomy->Leaves();
    leaves.insert(leaves.end(), {"*", "G0", "G1"});
    return leaves;
  }();
  std::vector<std::string> guards;
  for (size_t r = 0; r < anonymization.row_count(); ++r) {
    guards.push_back(nodes[rng.NextBelow(nodes.size())]);
  }
  PersonalizedPrivacy personalized(
      taxonomy, guards, std::vector<double>(guards.size(), 1.0), column);
  auto breach = personalized.BreachProbabilities(anonymization, partition);
  ASSERT_TRUE(breach.ok());
  ExpectBits(*breach,
             RefBreach(*taxonomy, guards, anonymization, partition, column),
             "breach");

  // Against the definitions, every type exactly.
  const Definitions def = Define(anonymization, partition, column, c);
  EXPECT_EQ(*distinct, def.distinct);
  ExpectBits(*entropy, def.entropy, "entropy (definition)");
  ExpectBits(recursive, def.recursive, "recursive (definition)");
  ExpectBits(*equal, def.emd_equal, "equal emd (definition)");
  ExpectBits(*ordered, def.emd_ordered, "ordered emd (definition)");
  ExpectBits(count_vector->values(), def.count_vector,
             "count vector (definition)");
  // Distinct ℓ and p-sensitivity: the least distinct count of an active
  // class (infinite when none is active).
  const double least =
      def.distinct.empty()
          ? std::numeric_limits<double>::infinity()
          : static_cast<double>(
                *std::min_element(def.distinct.begin(), def.distinct.end()));
  EXPECT_EQ(DistinctLDiversity(2, column).Measure(anonymization, partition),
            least);
  EXPECT_EQ(
      PSensitiveKAnonymity(2, 1, column).Measure(anonymization, partition),
      least);

  // The QI-side readers: class spread against both references, and on
  // full-domain releases LM and entropy loss against the string era's.
  auto spread = ClassSpreadLoss::PerTupleLoss(anonymization, partition);
  ASSERT_TRUE(spread.ok());
  ExpectBits(spread->values(), RefClassSpread(anonymization, partition),
             "class spread");
  ExpectBits(spread->values(), def.class_spread, "class spread (definition)");
  if (anonymization.scheme.has_value()) {
    auto lm = LossMetric::PerTupleLoss(anonymization);
    auto entropy_loss = EntropyLoss::PerTupleLoss(anonymization);
    ASSERT_TRUE(lm.ok() && entropy_loss.ok());
    ExpectBits(lm->values(), RefLossMetric(anonymization), "lm");
    ExpectBits(entropy_loss->values(), RefEntropyLoss(anonymization),
               "entropy loss");
  }
}

// Range queries over each numeric QI, with and without an equality
// predicate on each string column.
void CheckQueries(const Anonymization& anonymization,
                  const EquivalencePartition& partition, Rng& rng) {
  const Dataset& data = *anonymization.original;
  std::vector<size_t> numeric;
  std::vector<std::optional<size_t>> categorical = {std::nullopt};
  for (size_t column = 0; column < data.column_count(); ++column) {
    if (data.schema().attribute(column).type == AttributeType::kString) {
      categorical.push_back(column);
    } else if (std::find(anonymization.qi_columns.begin(),
                         anonymization.qi_columns.end(),
                         column) != anonymization.qi_columns.end()) {
      numeric.push_back(column);
    }
  }
  for (size_t column : numeric) {
    for (const std::optional<size_t>& category : categorical) {
      const uint64_t seed = rng.NextUint64();
      Rng draw(seed);
      auto workload =
          QueryWorkload::Random(data, column, category, 6, 0.4, draw);
      auto range = data.NumericRange(column);
      if (!range.ok() || range->second <= range->first) {
        EXPECT_FALSE(workload.ok());
        continue;
      }
      ASSERT_TRUE(workload.ok());
      // The categorical values are drawn from the present values in
      // sorted order, as DistinctValues listed them.
      if (category.has_value()) {
        const std::vector<Value> present = RefDistinctValues(data, *category);
        Rng replay(seed);
        for (const RangeQuery& query : workload->queries()) {
          replay.NextDouble();
          EXPECT_EQ(query.categorical_value,
                    present[replay.NextBelow(present.size())].AsString());
        }
      }
      std::vector<RangeQuery> queries = workload->queries();
      // A value no row holds estimates 0 on both sides.
      RangeQuery absent = queries.front();
      if (category.has_value()) absent.categorical_value = "no such value";
      queries.push_back(absent);
      for (const RangeQuery& query : queries) {
        auto estimate = EstimatedCount(anonymization, partition, query);
        ASSERT_TRUE(estimate.ok());
        ExpectBits(*estimate,
                   RefEstimatedCount(anonymization, partition, query),
                   "estimate");
      }
    }
  }
}

// ------------------------------------------------------------- inputs --

constexpr AttributeRole kQi = AttributeRole::kQuasiIdentifier;

// A random dataset: 1-3 QIs of random type, then one sensitive column.
// Real QIs hold no -0 (a level-0 label "-0" covers no present value in
// either implementation, so LM is undefined there), and the sensitive
// column's reals print distinctly; the declared real cases have their own
// test below.
struct RandomData {
  std::shared_ptr<const Dataset> data;
  std::vector<size_t> qi;
  size_t sensitive = 0;
  HierarchySet hierarchies;
};

// One cell of a QI column of `type`, from a pool of `cardinality` values
// whose first-seen order is not their sorted order.
Value QiValue(AttributeType type, uint64_t index) {
  switch (type) {
    case AttributeType::kInt:
      return Value(static_cast<int64_t>((index * 37) % 97));
    case AttributeType::kReal:
      return Value(static_cast<double>((index * 37) % 97) * 0.5);
    case AttributeType::kString: {
      const uint64_t i = (index * 7) % 20;
      return Value(std::string(1, static_cast<char>('a' + i % 5)) +
                   std::string(1, static_cast<char>('1' + i / 5)));
    }
  }
  return Value();
}

// One sensitive value; strings and ints whose text order differs from
// their value or first-seen order (9 < 10 < 100 as numbers, not as text).
Value SensitiveValue(AttributeType type, uint64_t index) {
  static const int64_t kInts[] = {9,  10,   100, -3, 1000, 25,
                                  7,  -100, 42,  0,  11,   101};
  switch (type) {
    case AttributeType::kInt:
      return Value(index < 12 ? kInts[index]
                              : static_cast<int64_t>(index * 131) - 500);
    case AttributeType::kReal:
      return Value(static_cast<double>(static_cast<int64_t>(index * 13 % 61) -
                                       30) *
                   0.25);
    case AttributeType::kString:
      return Value((index % 3 == 0 ? "Z" : index % 3 == 1 ? "a" : "m") +
                   std::to_string(index * 7 % 101));
  }
  return Value();
}

RandomData MakeRandomData(Rng& rng) {
  const AttributeType kTypes[] = {AttributeType::kInt, AttributeType::kReal,
                                  AttributeType::kString};
  const size_t qi_count = 1 + rng.NextBelow(3);
  std::vector<AttributeDef> attributes;
  for (size_t q = 0; q < qi_count; ++q) {
    attributes.push_back(
        {"q" + std::to_string(q), kTypes[rng.NextBelow(3)], kQi});
  }
  const AttributeType sensitive_type = kTypes[rng.NextBelow(3)];
  attributes.push_back(
      {"s", sensitive_type, AttributeRole::kSensitive});
  auto schema = Schema::Create(attributes);
  MDC_CHECK(schema.ok());

  const size_t rows = 1 + rng.NextBelow(40);
  // Sensitive cardinality: one value, a few, or more than any class holds.
  const size_t mode = rng.NextBelow(3);
  const size_t cardinality =
      mode == 0 ? 1 : mode == 1 ? 2 + rng.NextBelow(6) : rows + 1 + rows;
  std::vector<size_t> qi_cardinality;
  for (size_t q = 0; q < qi_count; ++q) {
    qi_cardinality.push_back(1 + rng.NextBelow(12));
  }
  auto data = std::make_shared<Dataset>(*schema);
  for (size_t r = 0; r < rows; ++r) {
    Dataset::Row row;
    for (size_t q = 0; q < qi_count; ++q) {
      row.push_back(QiValue(attributes[q].type,
                            rng.NextBelow(qi_cardinality[q])));
    }
    row.push_back(SensitiveValue(sensitive_type, rng.NextBelow(cardinality)));
    MDC_CHECK(data->AppendRow(std::move(row)).ok());
  }
  // Orphans: rewrite some string cells so their old entries stay in the
  // dictionary with no row using them.
  if (rng.NextBool(0.4)) {
    for (size_t column = 0; column < attributes.size(); ++column) {
      if (attributes[column].type != AttributeType::kString) continue;
      const size_t rewrites = 1 + rng.NextBelow(3);
      for (size_t i = 0; i < rewrites; ++i) {
        const size_t row = rng.NextBelow(rows);
        data->set_cell(row, column,
                       column == qi_count
                           ? SensitiveValue(sensitive_type,
                                            rng.NextBelow(cardinality))
                           : QiValue(AttributeType::kString,
                                     rng.NextBelow(20)));
      }
    }
  }

  RandomData out;
  out.sensitive = qi_count;
  for (size_t q = 0; q < qi_count; ++q) {
    out.qi.push_back(q);
    std::shared_ptr<const ValueHierarchy> hierarchy;
    if (attributes[q].type == AttributeType::kString) {
      hierarchy =
          std::make_shared<const SuffixHierarchy>(*SuffixHierarchy::Create(2));
    } else {
      hierarchy = std::make_shared<const IntervalHierarchy>(
          *IntervalHierarchy::Create({{-1.0, 5.0}, {-1.0, 20.0}}));
    }
    MDC_CHECK(out.hierarchies.Bind(q, hierarchy).ok());
  }
  out.data = std::move(data);
  return out;
}

// A release of `data` over a partition the caller made: the release is
// the original itself, some classes wholly suppressed and some rows
// suppressed inside active classes.
Anonymization CopyRelease(const RandomData& random,
                          const EquivalencePartition& partition, Rng& rng) {
  Anonymization anonymization;
  anonymization.original = random.data;
  anonymization.release = *random.data;
  anonymization.qi_columns = random.qi;
  anonymization.suppressed.assign(random.data->row_count(), false);
  for (ClassSpan members : partition.classes()) {
    const bool whole = rng.NextBool(0.2);
    for (size_t row : members) {
      anonymization.suppressed[row] = whole || rng.NextBool(0.1);
    }
  }
  anonymization.algorithm = "random";
  return anonymization;
}

TEST(ClassStatisticsOracleTest, CountCodesMatchesPerClassMaps) {
  Rng rng(20261019);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t rows = rng.NextBelow(80);
    const size_t cardinality = 1 + rng.NextBelow(trial % 2 == 0 ? 5 : 200);
    const uint32_t keys = static_cast<uint32_t>(1 + rng.NextBelow(10));
    std::vector<uint32_t> key(rows);
    std::vector<uint32_t> codes(rows);
    for (size_t r = 0; r < rows; ++r) {
      key[r] = static_cast<uint32_t>(rng.NextBelow(keys));
      codes[r] = static_cast<uint32_t>(rng.NextBelow(cardinality));
    }
    const EquivalencePartition partition =
        EquivalencePartition::FromCodeColumns(rows, {key}, {keys});
    const ClassCodeCounts counts = partition.CountCodes(codes, cardinality);
    ASSERT_EQ(counts.offsets.size(), partition.class_count() + 1);
    EXPECT_EQ(counts.offsets.back(), counts.codes.size());
    EXPECT_EQ(counts.counts.size(), counts.codes.size());
    for (size_t c = 0; c < partition.class_count(); ++c) {
      std::map<uint32_t, size_t> want;
      for (size_t row : partition.class_members(c)) ++want[codes[row]];
      const auto got_codes = counts.codes_of(c);
      const auto got_counts = counts.counts_of(c);
      ASSERT_EQ(got_codes.size(), want.size()) << "trial " << trial;
      size_t i = 0;
      for (const auto& [code, count] : want) {
        EXPECT_EQ(got_codes[i], code) << "trial " << trial << " class " << c;
        EXPECT_EQ(got_counts[i], count) << "trial " << trial << " class " << c;
        ++i;
      }
    }
  }
}

TEST(ClassStatisticsOracleTest, RandomReleasesMatchBothReferences) {
  Rng rng(7001);
  size_t pairs = 0;
  size_t suppressed_classes = 0;
  size_t by_type[3] = {0, 0, 0};
  auto count_suppressed = [&](const Anonymization& anonymization,
                              const EquivalencePartition& partition) {
    for (size_t c = 0; c < partition.class_count(); ++c) {
      if (!ClassIsActive(partition, c, anonymization.suppressed)) {
        ++suppressed_classes;
      }
    }
  };
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const RandomData random = MakeRandomData(rng);
    const size_t rows = random.data->row_count();
    const size_t type_index = static_cast<size_t>(
        random.data->schema().attribute(random.sensitive).type);

    // Mondrian.
    MondrianConfig mondrian_config;
    mondrian_config.k =
        static_cast<int>(1 + rng.NextBelow(std::min<uint64_t>(rows, 4)));
    auto mondrian = MondrianAnonymize(random.data, mondrian_config);
    ASSERT_TRUE(mondrian.ok());
    CheckRelease(mondrian->anonymization, mondrian->partition,
                 random.sensitive, rng);
    CheckQueries(mondrian->anonymization, mondrian->partition, rng);

    // Datafly under a suppression budget.
    DataflyConfig datafly_config;
    datafly_config.k = static_cast<int>(
        1 + rng.NextBelow(std::min<uint64_t>(rows, 5)));
    datafly_config.suppression.max_fraction = 0.1 * rng.NextBelow(4);
    auto datafly =
        DataflyAnonymize(random.data, random.hierarchies, datafly_config);
    ASSERT_TRUE(datafly.ok()) << datafly.status().ToString();
    const NodeEvaluation& evaluation = datafly->evaluation;
    CheckRelease(evaluation.anonymization, evaluation.partition,
                 random.sensitive, rng);
    CheckQueries(evaluation.anonymization, evaluation.partition, rng);
    count_suppressed(evaluation.anonymization, evaluation.partition);

    // Random keys.
    const uint32_t keys = static_cast<uint32_t>(1 + rng.NextBelow(rows));
    std::vector<uint32_t> key(rows);
    for (uint32_t& k : key) k = static_cast<uint32_t>(rng.NextBelow(keys));
    const EquivalencePartition partition =
        EquivalencePartition::FromCodeColumns(rows, {key}, {keys});
    const Anonymization copy = CopyRelease(random, partition, rng);
    CheckRelease(copy, partition, random.sensitive, rng);
    CheckQueries(copy, partition, rng);
    count_suppressed(copy, partition);

    pairs += 3;
    by_type[type_index] += 3;
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(pairs, 500u);
  EXPECT_GT(suppressed_classes, 0u);
  for (size_t count : by_type) EXPECT_GT(count, 0u);
}

// Table 1 with Marital Status as a QI of the release and as the sensitive
// column, on the paper's three full-domain releases.
TEST(ClassStatisticsOracleTest, Table1MaritalAsQiAndSensitive) {
  Rng rng(3);
  for (auto make : {paper::MakeT3a, paper::MakeT3b, paper::MakeT4}) {
    auto anonymization = make();
    ASSERT_TRUE(anonymization.ok());
    ASSERT_NE(std::find(anonymization->qi_columns.begin(),
                        anonymization->qi_columns.end(),
                        paper::kMaritalColumn),
              anonymization->qi_columns.end());
    const EquivalencePartition partition =
        EquivalencePartition::FromAnonymization(*anonymization);
    CheckRelease(*anonymization, partition, paper::kMaritalColumn, rng);
    CheckQueries(*anonymization, partition, rng);
    auto hierarchical = HierarchicalEmdPerClass(
        *anonymization, partition, *paper::MaritalTaxonomy(),
        paper::kMaritalColumn);
    ASSERT_TRUE(hierarchical.ok());
    ExpectBits(*hierarchical,
               RefHierarchicalEmd(*anonymization, partition,
                                  *paper::MaritalTaxonomy(),
                                  paper::kMaritalColumn),
               "marital hierarchical emd");
  }
}

// The declared change for reals: values group by value, not by printed
// text. Six rows, an int QI and real sensitive values (0, -0, 5 |
// 1.0000001, 1.0000002, 7), Mondrian k = 3: the printed-text counts were
// (3, 2) distinct values per class ("0" and "-0" apart, both 1.000000x as
// "1"); by value they are (2, 3).
TEST(ClassStatisticsOracleTest, RealsCountByValueNotByPrintedText) {
  auto schema = Schema::Create(
      {{"age", AttributeType::kInt, kQi},
       {"reading", AttributeType::kReal, AttributeRole::kSensitive}});
  ASSERT_TRUE(schema.ok());
  auto data = std::make_shared<Dataset>(*schema);
  const int64_t ages[] = {20, 21, 22, 40, 41, 42};
  const double readings[] = {0.0, -0.0, 5.0, 1.0000001, 1.0000002, 7.0};
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        data->AppendRow({Value(ages[i]), Value(readings[i])}).ok());
  }
  MondrianConfig config;
  config.k = 3;
  auto release = MondrianAnonymize(data, config);
  ASSERT_TRUE(release.ok());
  ASSERT_EQ(release->partition.class_count(), 2u);
  const Anonymization& anonymization = release->anonymization;
  const EquivalencePartition& partition = release->partition;

  EXPECT_EQ(RefDistinct(anonymization, partition, 1),
            (std::vector<size_t>{3, 2}));
  auto distinct = DistinctSensitivePerClass(anonymization, partition, 1);
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(*distinct, (std::vector<size_t>{2, 3}));

  // Everything else follows the by-value counts: the definitions hold
  // exactly.
  const Definitions def = Define(anonymization, partition, 1, 2.0);
  EXPECT_EQ(*distinct, def.distinct);
  auto entropy = SensitiveEntropyPerClass(anonymization, partition, 1);
  auto count_vector = SensitiveCountVector(anonymization, partition, 1);
  ASSERT_TRUE(entropy.ok() && count_vector.ok());
  ExpectBits(*entropy, def.entropy, "entropy");
  EXPECT_EQ(count_vector->values(),
            (std::vector<double>{2, 2, 1, 1, 1, 1}));
  ExpectBits(count_vector->values(), def.count_vector, "count vector");
  for (GroundDistance ground :
       {GroundDistance::kEqual, GroundDistance::kOrdered}) {
    auto emd = EmdPerClass(anonymization, partition, ground, 1);
    ASSERT_TRUE(emd.ok());
    ExpectBits(*emd,
               ground == GroundDistance::kEqual ? def.emd_equal
                                                : def.emd_ordered,
               "emd");
  }
}

// The declared change for ints: entropies and equal-ground EMDs sum in
// value order, not printed-text order; counts and ordered EMDs do not
// move. Salaries 9, 10, 100 sort as "10" < "100" < "9" as text.
TEST(ClassStatisticsOracleTest, IntsSumInValueOrder) {
  auto schema = Schema::Create(
      {{"age", AttributeType::kInt, kQi},
       {"salary", AttributeType::kInt, AttributeRole::kSensitive}});
  ASSERT_TRUE(schema.ok());
  auto data = std::make_shared<Dataset>(*schema);
  const int64_t salaries[] = {9, 10, 100, 9, 100, 10, 10, 9, 100};
  for (size_t i = 0; i < 9; ++i) {
    ASSERT_TRUE(data->AppendRow({Value(static_cast<int64_t>(20 + i)),
                                 Value(salaries[i])})
                    .ok());
  }
  MondrianConfig config;
  config.k = 3;
  auto release = MondrianAnonymize(data, config);
  ASSERT_TRUE(release.ok());
  ASSERT_GE(release->partition.class_count(), 2u);
  Rng rng(2);
  CheckRelease(release->anonymization, release->partition, 1, rng);
}

}  // namespace
}  // namespace mdc
