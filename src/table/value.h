// Typed cell values for microdata tables.
//
// A Value holds one of: 64-bit integer, double, or string. Original
// (pre-anonymization) tables hold typed values; anonymized tables hold
// generalized *labels* (strings such as "1305*" or "(25,35]") produced by
// the hierarchy layer, so Value also serves as the cell type there.

#ifndef MDC_TABLE_VALUE_H_
#define MDC_TABLE_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/status.h"

namespace mdc {

enum class AttributeType {
  kInt,     // 64-bit signed integer (age, zip-as-number, counts).
  kReal,    // double (continuous measurements).
  kString,  // categorical / free-form text.
};

const char* AttributeTypeName(AttributeType type);

class Value {
 public:
  Value() : rep_(int64_t{0}) {}
  explicit Value(int64_t v) : rep_(v) {}
  explicit Value(double v) : rep_(v) {}
  explicit Value(std::string v) : rep_(std::move(v)) {}
  explicit Value(const char* v) : rep_(std::string(v)) {}

  bool is_int() const { return std::holds_alternative<int64_t>(rep_); }
  bool is_real() const { return std::holds_alternative<double>(rep_); }
  bool is_string() const { return std::holds_alternative<std::string>(rep_); }

  // Typed accessors; MDC_CHECK on type mismatch.
  int64_t AsInt() const;
  double AsReal() const;
  const std::string& AsString() const;

  // Numeric view: the int or real payload as double. MDC_CHECK on strings.
  double AsNumber() const;

  // Human-readable rendering (ints without decimals, reals compact).
  std::string ToString() const;

  // Parses `text` as a value of `type`; a real must be finite.
  static StatusOr<Value> Parse(std::string_view text, AttributeType type);

  // Equality is type-sensitive: Value(1) != Value("1").
  friend bool operator==(const Value& a, const Value& b) {
    return a.rep_ == b.rep_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  // Total order used for sorting/grouping: ints < reals < strings by type,
  // then by payload. (Cross-type order is arbitrary but stable.)
  friend bool operator<(const Value& a, const Value& b) {
    return a.rep_ < b.rep_;
  }

  // Hash for unordered containers.
  size_t Hash() const;

 private:
  std::variant<int64_t, double, std::string> rep_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace mdc

#endif  // MDC_TABLE_VALUE_H_
