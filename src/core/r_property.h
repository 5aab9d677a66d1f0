// r-property anonymizations — Definition 2 of the paper, as API.
//
// A PropertyExtractor names one measurable per-tuple property; inducing a
// list of r extractors on a release yields the paper's Υ — an aligned
// PropertySet ready for the dominance comparators (Table 4) and the
// multi-property indices (§5.5–5.7). StandardExtractors() bundles the
// properties the paper itself uses: equivalence-class size, sensitive
// rarity, linkage privacy, and per-tuple utility.

#ifndef MDC_CORE_R_PROPERTY_H_
#define MDC_CORE_R_PROPERTY_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "anonymize/equivalence.h"
#include "anonymize/generalizer.h"
#include "core/dominance.h"

namespace mdc {

struct PropertyExtractor {
  std::string name;
  // Must produce a HIGHER-IS-BETTER vector of size row_count().
  std::function<StatusOr<PropertyVector>(const Anonymization&,
                                         const EquivalencePartition&)>
      fn;
};

// The r-property projection: applies each extractor in order. Fails if
// any extractor fails or returns a wrong-sized vector.
StatusOr<PropertySet> InduceProperties(
    const Anonymization& anonymization, const EquivalencePartition& partition,
    const std::vector<PropertyExtractor>& extractors);

// Named extractors:
//  - "equivalence-class-size": |EC| per tuple (k-anonymity property).
//  - "linkage-privacy": 1 - 1/|EC| per tuple.
//  - "sensitive-rarity": negated count of the tuple's sensitive value in
//    its class (needs a resolvable sensitive column).
//  - "per-tuple-utility": per-tuple LM utility for full-domain releases,
//    class-spread utility otherwise.
PropertyExtractor ClassSizeExtractor();
PropertyExtractor LinkagePrivacyExtractor();
PropertyExtractor SensitiveRarityExtractor(
    std::optional<size_t> sensitive_column = std::nullopt);
PropertyExtractor UtilityExtractor();

// {class size, sensitive rarity, per-tuple utility} — a 3-property
// anonymization.
std::vector<PropertyExtractor> StandardExtractors(
    std::optional<size_t> sensitive_column = std::nullopt);

}  // namespace mdc

#endif  // MDC_CORE_R_PROPERTY_H_
