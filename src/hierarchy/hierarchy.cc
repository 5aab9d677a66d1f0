#include "hierarchy/hierarchy.h"

#include <map>
#include <string_view>
#include <unordered_map>

namespace mdc {

bool ValueHierarchy::Covers(const std::string& label,
                            const Value& value) const {
  for (int level = 0; level <= height(); ++level) {
    StatusOr<std::string> generalized = Generalize(value, level);
    if (!generalized.ok()) return false;
    if (*generalized == label) return true;
  }
  return false;
}

std::vector<size_t> CountCovered(const ValueHierarchy& hierarchy,
                                 std::span<const Value> values,
                                 std::span<const std::string> labels) {
  std::unordered_map<std::string_view, size_t> index_of;
  index_of.reserve(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) index_of.emplace(labels[i], i);
  std::vector<size_t> covered(labels.size(), 0);
  // last_value[i] = the value that last counted toward label i, so a label
  // a chain repeats (a shallow taxonomy leaf clamped at the root) counts
  // once per value.
  std::vector<size_t> last_value(labels.size(), values.size());
  for (size_t v = 0; v < values.size(); ++v) {
    for (int level = 0; level <= hierarchy.height(); ++level) {
      StatusOr<std::string> generalized =
          hierarchy.Generalize(values[v], level);
      if (!generalized.ok()) break;
      auto it = index_of.find(*generalized);
      if (it == index_of.end() || last_value[it->second] == v) continue;
      last_value[it->second] = v;
      ++covered[it->second];
    }
  }
  return covered;
}

Status VerifyNesting(const ValueHierarchy& hierarchy,
                     const std::vector<Value>& values) {
  const int height = hierarchy.height();
  if (height < 1) {
    return Status::InvalidArgument("hierarchy height must be >= 1");
  }
  // labels[l][i] = label of values[i] at level l.
  std::vector<std::vector<std::string>> labels(
      static_cast<size_t>(height) + 1);
  for (int level = 0; level <= height; ++level) {
    for (const Value& v : values) {
      auto label = hierarchy.Generalize(v, level);
      if (!label.ok()) {
        return Status::FailedPrecondition(
            "value '" + v.ToString() + "' fails to generalize at level " +
            std::to_string(level) + ": " + label.status().ToString());
      }
      labels[level].push_back(*label);
    }
  }
  for (int level = 0; level < height; ++level) {
    // Equal label at `level` must imply equal label at `level + 1`.
    std::map<std::string, std::string> parent_of;
    for (size_t i = 0; i < values.size(); ++i) {
      auto [it, inserted] =
          parent_of.emplace(labels[level][i], labels[level + 1][i]);
      if (!inserted && it->second != labels[level + 1][i]) {
        return Status::FailedPrecondition(
            "nesting violated: label '" + labels[level][i] + "' at level " +
            std::to_string(level) + " maps to both '" + it->second +
            "' and '" + labels[level + 1][i] + "' at level " +
            std::to_string(level + 1));
      }
    }
  }
  // The top level must be a single label.
  for (size_t i = 1; i < values.size(); ++i) {
    if (labels[height][i] != labels[height][0]) {
      return Status::FailedPrecondition(
          "top level is not a single label: '" + labels[height][0] +
          "' vs '" + labels[height][i] + "'");
    }
  }
  return Status::Ok();
}

}  // namespace mdc
