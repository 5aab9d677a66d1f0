// Interval-based generalization for numeric attributes.
//
// Each level above 0 partitions the number line into half-open bins
// (origin + k*width, origin + (k+1)*width], rendered as "(lo,hi]" exactly
// as the paper prints them (e.g. "(25,35]"). Level 0 is the exact value;
// level height() is "*".
//
// The paper's age hierarchies:
//   chain A (T3a, T3b):  level 1 = width 10 @ origin 5   -> (25,35]
//                        level 2 = width 20 @ origin 15  -> (15,35]
//   chain B (T4):        level 1 = width 20 @ origin 0   -> (20,40]
// Construction validates that consecutive levels nest (each bin of level
// l+1 is a union of bins of level l).

#ifndef MDC_HIERARCHY_INTERVAL_HIERARCHY_H_
#define MDC_HIERARCHY_INTERVAL_HIERARCHY_H_

#include <string>
#include <vector>

#include "hierarchy/hierarchy.h"

namespace mdc {

struct IntervalLevel {
  double origin = 0.0;  // Left edge of bin 0 (exclusive).
  double width = 1.0;   // Bin width; must be positive.
};

// A half-open numeric interval (lo, hi].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  std::string ToLabel() const;  // "(lo,hi]"
};

class IntervalHierarchy final : public ValueHierarchy {
 public:
  // `levels[i]` defines generalization level i+1; level 0 (exact) and the
  // top level ("*") are implicit, so height() == levels.size() + 1.
  // Fails unless widths strictly increase and each level's bins are unions
  // of the previous level's bins (width divisibility + origin alignment).
  static StatusOr<IntervalHierarchy> Create(std::vector<IntervalLevel> levels);

  std::string Describe() const override;
  int height() const override {
    return static_cast<int>(levels_.size()) + 1;
  }
  StatusOr<std::string> Generalize(const Value& value,
                                   int level) const override;

  // The bin of `v` at interval level `index` (0-based into the level list).
  Interval BinOf(double v, size_t index) const;

 private:
  explicit IntervalHierarchy(std::vector<IntervalLevel> levels)
      : levels_(std::move(levels)) {}

  std::vector<IntervalLevel> levels_;
};

}  // namespace mdc

#endif  // MDC_HIERARCHY_INTERVAL_HIERARCHY_H_
