// Value generalization hierarchies (domain generalization hierarchies, DGH).
//
// A ValueHierarchy defines, for one attribute domain, a chain of
// generalization levels: level 0 is the exact value, level height() is full
// suppression (the most general label). Generalizing a value to a level
// yields a *label* (a string such as "1305*", "(25,35]", or "Married").
//
// The nesting invariant every hierarchy must satisfy: if two values map to
// the same label at level l, they map to the same label at every level
// above l. Full-domain algorithms (Datafly, Samarati, the optimal lattice
// search) rely on this; VerifyNesting() checks it for a concrete value set
// (tests call it).
//
// Which values a label stands for follows from Generalize alone: a label
// covers a value when it lies on the value's generalization chain (see
// Covers).

#ifndef MDC_HIERARCHY_HIERARCHY_H_
#define MDC_HIERARCHY_HIERARCHY_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/value.h"

namespace mdc {

// The conventional label for a fully suppressed cell.
inline constexpr const char kSuppressedLabel[] = "*";

class ValueHierarchy {
 public:
  virtual ~ValueHierarchy() = default;

  // A short human-readable description ("suffix(5)", "interval[10@5,20@15]").
  virtual std::string Describe() const = 0;

  // Number of generalization steps; valid levels are 0..height().
  // Level height() always yields the most general label.
  virtual int height() const = 0;

  // Label of `value` at `level`. Level 0 returns the value's own rendering.
  // Fails if the value is outside the hierarchy's domain or the level is
  // out of range.
  virtual StatusOr<std::string> Generalize(const Value& value,
                                           int level) const = 0;

  // True if `label` lies on `value`'s generalization chain, that is, if
  // Generalize(value, l) == label at some level l in 0..height(). A value
  // that fails to generalize is covered by no label. Personalized privacy
  // asks it per value; the label-based loss metrics count it for a whole
  // column at once through CountCovered, by the same rule.
  bool Covers(const std::string& label, const Value& value) const;
};

// For each of `labels` (distinct strings, such as a column's dictionary),
// how many of `values` it covers. Each value's chain is generalized once,
// level 0 to height(), and counts once toward every distinct label on it;
// a label no chain reaches counts 0.
std::vector<size_t> CountCovered(const ValueHierarchy& hierarchy,
                                 std::span<const Value> values,
                                 std::span<const std::string> labels);

// Checks the nesting invariant of `hierarchy` over the given values:
// equal labels at level l imply equal labels at level l+1, for all levels.
// Also checks that every value generalizes successfully at every level
// (Covers(Generalize(v, l), v) then holds by definition).
Status VerifyNesting(const ValueHierarchy& hierarchy,
                     const std::vector<Value>& values);

}  // namespace mdc

#endif  // MDC_HIERARCHY_HIERARCHY_H_
