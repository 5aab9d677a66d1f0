// One-call comparison of two anonymizations under the paper's framework.
//
// CompareAnonymizations induces the Definition-2 property anonymization of
// both releases (core/r_property.h: class size, sensitive rarity, per-tuple
// utility), ranks each property pair with one AllPairsCompare call of the
// packed comparison engine (core/compare_engine.h), and returns a
// structured, renderable report: the verdict of every comparator, the
// dominance relation, and the per-release bias statistics. This is the
// "downstream user" API of the library. The verdicts are those of
// StandardComparators (core/comparator.h), which comparator_test checks
// verdict for verdict.

#ifndef MDC_CORE_REPORT_H_
#define MDC_CORE_REPORT_H_

#include <optional>
#include <string>
#include <vector>

#include "anonymize/equivalence.h"
#include "anonymize/generalizer.h"
#include "common/run_context.h"
#include "core/bias.h"
#include "core/comparator.h"

namespace mdc {

// The report scores equivalence-class size, sensitive rarity (when a
// sensitive column resolves) and per-tuple utility (the Iyengar loss
// metric for full-domain releases, the class-spread loss otherwise). The
// class-size property is also ranked against the ideal of the
// fully-linked table (every entry N).
struct ComparisonOptions {
  // Sensitive column for the diversity property; when unset the property
  // is skipped unless the schema has exactly one kSensitive attribute.
  std::optional<size_t> sensitive_column;
};

struct ComparatorVerdict {
  std::string property;    // "equivalence-class-size", "lm-utility", ...
  std::string comparator;  // "cov-better", ...
  ComparatorOutcome outcome = ComparatorOutcome::kEquivalent;
};

struct ComparisonReport {
  std::string first_name;
  std::string second_name;
  std::vector<ComparatorVerdict> verdicts;
  std::vector<std::string> properties;  // Property names compared.
  BiasReport first_bias;   // Bias of the first release's privacy vector.
  BiasReport second_bias;
  // Net score: +1 per comparator verdict for first, -1 for second.
  int net_score = 0;

  // Aligned text rendering for console output.
  std::string ToText() const;
};

// Compares two releases OF THE SAME ORIGINAL DATA SET (sizes must match).
// `run` is charged one step on entry and one per property, all before the
// first comparison. A report is all-or-nothing: when the budget expires
// the budget Status is returned (a partially scored report would be
// misleading). Property vectors must be finite (PropertyMatrix::FromSet).
StatusOr<ComparisonReport> CompareAnonymizations(
    const Anonymization& first, const EquivalencePartition& first_partition,
    const Anonymization& second,
    const EquivalencePartition& second_partition,
    const ComparisonOptions& options = {}, RunContext* run = nullptr);

}  // namespace mdc

#endif  // MDC_CORE_REPORT_H_
