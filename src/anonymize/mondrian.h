// Mondrian multidimensional k-anonymity (LeFevre, DeWitt, Ramakrishnan,
// ICDE 2006), greedy strict top-down partitioning.
//
// Unlike the full-domain algorithms, Mondrian partitions *tuples*: it
// recursively median-splits the quasi-identifier space as long as both
// sides keep at least k rows, then releases each partition with range
// labels ("[26-31]" for numerics, "[13052..13269]" for ordered strings;
// single-value partitions keep the exact value). No hierarchies are
// involved, so Anonymization::scheme is absent and class-based utility
// metrics apply.
//
// Categorical attributes are treated as ordered by their value (the
// relaxation LeFevre et al. call "ordered categorical"); this is
// documented as a substitution in DESIGN.md.
//
// The partitioning runs on the dictionary codes of the QI columns
// (table/encoded_view.h), whose order is the Value order: a spread is a
// min/max or distinct count over u32, a median cut counts the range's
// codes into a histogram (a selection plus a counting pass when they span
// more values than the range has rows), and a label is formatted once per
// (min code, max code) pair of its position. The equivalence partition is
// emitted directly (classes in label-tuple order, partitions that print
// the same labels merged), never regrouped from the release strings.

#ifndef MDC_ANONYMIZE_MONDRIAN_H_
#define MDC_ANONYMIZE_MONDRIAN_H_

#include <memory>

#include "anonymize/equivalence.h"
#include "anonymize/generalizer.h"
#include "common/run_context.h"

namespace mdc {

struct MondrianConfig {
  int k = 2;
  // Strict mode requires both halves of a cut to have >= k rows. (The
  // relaxed variant of the paper allows uneven cuts; we implement strict.)
};

struct MondrianResult {
  Anonymization anonymization;
  EquivalencePartition partition;
  size_t partition_count = 0;
  int max_depth = 0;  // Depth of the deepest split.
  RunStats run_stats;
};

// Budget expiry degrades gracefully: splitting stops and the partitions
// reached so far are released as-is (every partition still has >= k rows,
// so the release stays k-anonymous — just coarser) with
// run_stats.truncated set.
StatusOr<MondrianResult> MondrianAnonymize(
    std::shared_ptr<const Dataset> original, const MondrianConfig& config,
    RunContext* run = nullptr);

}  // namespace mdc

#endif  // MDC_ANONYMIZE_MONDRIAN_H_
