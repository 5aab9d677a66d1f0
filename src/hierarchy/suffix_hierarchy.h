// Suffix-masking generalization for fixed-length codes (zip codes, phone
// prefixes). Level l replaces the last l characters with '*': zip 13053 at
// level 1 is "1305*", at level 3 "13***" — exactly the labels of the
// paper's Tables 2 and 3. Accepts both string values and integer values
// (integers are zero-padded to the code length).

#ifndef MDC_HIERARCHY_SUFFIX_HIERARCHY_H_
#define MDC_HIERARCHY_SUFFIX_HIERARCHY_H_

#include <string>

#include "hierarchy/hierarchy.h"

namespace mdc {

class SuffixHierarchy final : public ValueHierarchy {
 public:
  // `code_length` must be positive; height() == code_length, and the top
  // level renders as "*" (not a run of stars) to match the conventional
  // suppression label.
  static StatusOr<SuffixHierarchy> Create(int code_length);

  std::string Describe() const override;
  int height() const override { return code_length_; }
  StatusOr<std::string> Generalize(const Value& value,
                                   int level) const override;

  // The canonical code string for `value`, or an error if it does not fit
  // the code length.
  StatusOr<std::string> Canonicalize(const Value& value) const;

 private:
  explicit SuffixHierarchy(int code_length) : code_length_(code_length) {}

  int code_length_;
};

}  // namespace mdc

#endif  // MDC_HIERARCHY_SUFFIX_HIERARCHY_H_
