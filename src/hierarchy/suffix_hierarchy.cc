#include "hierarchy/suffix_hierarchy.h"

namespace mdc {

StatusOr<SuffixHierarchy> SuffixHierarchy::Create(int code_length) {
  if (code_length <= 0) {
    return Status::InvalidArgument("code length must be positive");
  }
  return SuffixHierarchy(code_length);
}

std::string SuffixHierarchy::Describe() const {
  return "suffix(" + std::to_string(code_length_) + ")";
}

StatusOr<std::string> SuffixHierarchy::Canonicalize(const Value& value) const {
  std::string code;
  if (value.is_string()) {
    code = value.AsString();
  } else if (value.is_int()) {
    code = std::to_string(value.AsInt());
    if (static_cast<int>(code.size()) < code_length_) {
      code.insert(code.begin(),
                  static_cast<size_t>(code_length_) - code.size(), '0');
    }
  } else {
    return Status::InvalidArgument("suffix hierarchy applied to real value");
  }
  if (static_cast<int>(code.size()) != code_length_) {
    return Status::InvalidArgument("code '" + code + "' does not have length " +
                                   std::to_string(code_length_));
  }
  return code;
}

StatusOr<std::string> SuffixHierarchy::Generalize(const Value& value,
                                                  int level) const {
  if (level < 0 || level > height()) {
    return Status::OutOfRange("suffix hierarchy level out of range: " +
                              std::to_string(level));
  }
  MDC_ASSIGN_OR_RETURN(std::string code, Canonicalize(value));
  if (level == height()) return std::string(kSuppressedLabel);
  for (int i = 0; i < level; ++i) {
    code[code.size() - 1 - static_cast<size_t>(i)] = '*';
  }
  return code;
}

}  // namespace mdc
