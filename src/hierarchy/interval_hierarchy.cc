#include "hierarchy/interval_hierarchy.h"

#include <cmath>

#include "common/strings.h"

namespace mdc {

std::string Interval::ToLabel() const {
  std::string label = "(";
  label.append(FormatCompact(lo)).append(",").append(FormatCompact(hi));
  return label.append("]");
}

StatusOr<IntervalHierarchy> IntervalHierarchy::Create(
    std::vector<IntervalLevel> levels) {
  for (size_t i = 0; i < levels.size(); ++i) {
    if (levels[i].width <= 0.0) {
      return Status::InvalidArgument("interval level width must be positive");
    }
    if (i > 0) {
      const IntervalLevel& prev = levels[i - 1];
      const IntervalLevel& cur = levels[i];
      if (cur.width <= prev.width) {
        return Status::InvalidArgument(
            "interval level widths must strictly increase");
      }
      double ratio = cur.width / prev.width;
      double offset = (cur.origin - prev.origin) / prev.width;
      if (std::abs(ratio - std::round(ratio)) > 1e-9 ||
          std::abs(offset - std::round(offset)) > 1e-9) {
        return Status::InvalidArgument(
            "interval level " + std::to_string(i + 1) +
            " does not nest in level " + std::to_string(i) +
            " (width must be a multiple and origins must align)");
      }
    }
  }
  return IntervalHierarchy(std::move(levels));
}

std::string IntervalHierarchy::Describe() const {
  std::string desc = "interval[";
  for (size_t i = 0; i < levels_.size(); ++i) {
    if (i > 0) desc += ",";
    desc += FormatCompact(levels_[i].width) + "@" +
            FormatCompact(levels_[i].origin);
  }
  desc += "]";
  return desc;
}

Interval IntervalHierarchy::BinOf(double v, size_t index) const {
  MDC_CHECK_LT(index, levels_.size());
  const IntervalLevel& level = levels_[index];
  // Bins are (origin + k*width, origin + (k+1)*width]; v belongs to bin
  // k = ceil((v - origin)/width) - 1.
  double k = std::ceil((v - level.origin) / level.width) - 1.0;
  // Guard against v sitting exactly on a boundary with floating error.
  double lo = level.origin + k * level.width;
  double hi = lo + level.width;
  if (v <= lo) {
    lo -= level.width;
    hi -= level.width;
  } else if (v > hi) {
    lo += level.width;
    hi += level.width;
  }
  return Interval{lo, hi};
}

StatusOr<std::string> IntervalHierarchy::Generalize(const Value& value,
                                                    int level) const {
  if (level < 0 || level > height()) {
    return Status::OutOfRange("interval hierarchy level out of range: " +
                              std::to_string(level));
  }
  if (value.is_string()) {
    return Status::InvalidArgument(
        "interval hierarchy applied to string value '" + value.AsString() +
        "'");
  }
  if (level == 0) return value.ToString();
  if (level == height()) return std::string(kSuppressedLabel);
  return BinOf(value.AsNumber(), static_cast<size_t>(level - 1)).ToLabel();
}

}  // namespace mdc
