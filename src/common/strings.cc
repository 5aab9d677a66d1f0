#include "common/strings.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>

#include "common/check.h"

namespace mdc {

std::vector<std::string> StrSplit(std::string_view input, char delimiter) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(input.substr(start));
      break;
    }
    fields.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return fields;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view separator) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result += separator;
    result += parts[i];
  }
  return result;
}

std::string_view StripWhitespace(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::optional<int64_t> ParseInt64(std::string_view text) {
  // strtoll's base-10 grammar: an optional sign, then digits. from_chars
  // takes no '+', so it is stripped here, and a second sign still fails.
  std::string_view digits = StripWhitespace(text);
  if (!digits.empty() && digits.front() == '+') {
    digits.remove_prefix(1);
    if (!digits.empty() && digits.front() == '-') return std::nullopt;
  }
  int64_t value = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, error] = std::from_chars(digits.data(), end, value);
  if (error != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> ParseDouble(std::string_view text) {
  std::string buffer(StripWhitespace(text));
  if (buffer.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buffer.c_str(), &end);
  if (errno == ERANGE || end != buffer.c_str() + buffer.size()) {
    return std::nullopt;
  }
  return value;
}

std::string FormatDouble(double value, int digits) {
  // to_chars in fixed format with a precision prints what printf's "%.*f"
  // prints, a negative count meaning 6. The buffer holds the sign, DBL_MAX's
  // 309 integer digits, the point and 100 digits.
  MDC_CHECK_LE(digits, 100);
  char buffer[411];
  char* end = std::to_chars(buffer, buffer + sizeof(buffer), value,
                            std::chars_format::fixed, digits)
                  .ptr;
  return std::string(buffer, end);
}

std::string FormatCompact(double value, int max_digits) {
  std::string text = FormatDouble(value, max_digits);
  if (text.find('.') == std::string::npos) return text;
  size_t last = text.find_last_not_of('0');
  if (text[last] == '.') --last;
  text.erase(last + 1);
  return text;
}

}  // namespace mdc
