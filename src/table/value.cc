#include "table/value.h"

#include <cmath>
#include <functional>

#include "common/strings.h"

namespace mdc {

const char* AttributeTypeName(AttributeType type) {
  switch (type) {
    case AttributeType::kInt:
      return "int";
    case AttributeType::kReal:
      return "real";
    case AttributeType::kString:
      return "string";
  }
  return "unknown";
}

int64_t Value::AsInt() const {
  MDC_CHECK_MSG(is_int(), "Value::AsInt on non-int value");
  return std::get<int64_t>(rep_);
}

double Value::AsReal() const {
  MDC_CHECK_MSG(is_real(), "Value::AsReal on non-real value");
  return std::get<double>(rep_);
}

const std::string& Value::AsString() const {
  MDC_CHECK_MSG(is_string(), "Value::AsString on non-string value");
  return std::get<std::string>(rep_);
}

double Value::AsNumber() const {
  if (is_int()) return static_cast<double>(std::get<int64_t>(rep_));
  MDC_CHECK_MSG(is_real(), "Value::AsNumber on string value");
  return std::get<double>(rep_);
}

std::string Value::ToString() const {
  if (is_int()) return std::to_string(std::get<int64_t>(rep_));
  if (is_real()) return FormatCompact(std::get<double>(rep_));
  return std::get<std::string>(rep_);
}

StatusOr<Value> Value::Parse(std::string_view text, AttributeType type) {
  switch (type) {
    case AttributeType::kInt: {
      std::optional<int64_t> v = ParseInt64(text);
      if (!v.has_value()) {
        return Status::InvalidArgument("cannot parse int: '" +
                                       std::string(text) + "'");
      }
      return Value(*v);
    }
    case AttributeType::kReal: {
      std::optional<double> v = ParseDouble(text);
      if (!v.has_value()) {
        return Status::InvalidArgument("cannot parse real: '" +
                                       std::string(text) + "'");
      }
      // Real columns are finite: NaN breaks the order every sort of a
      // column relies on, and no range label can cover it.
      if (!std::isfinite(*v)) {
        return Status::InvalidArgument("cannot parse real: '" +
                                       std::string(text) + "' (not finite)");
      }
      return Value(*v);
    }
    case AttributeType::kString:
      return Value(std::string(text));
  }
  return Status::Internal("unknown attribute type");
}

size_t Value::Hash() const {
  size_t type_tag = rep_.index();
  size_t payload = 0;
  if (is_int()) {
    payload = std::hash<int64_t>()(std::get<int64_t>(rep_));
  } else if (is_real()) {
    payload = std::hash<double>()(std::get<double>(rep_));
  } else {
    payload = std::hash<std::string>()(std::get<std::string>(rep_));
  }
  // Boost-style mix so (tag, payload) pairs spread well.
  return payload ^ (type_tag + 0x9E3779B97F4A7C15ULL + (payload << 6) +
                    (payload >> 2));
}

}  // namespace mdc
