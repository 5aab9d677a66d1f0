// Small string utilities used throughout the library.

#ifndef MDC_COMMON_STRINGS_H_
#define MDC_COMMON_STRINGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mdc {

// Splits `input` at every occurrence of `delimiter`. Adjacent delimiters
// produce empty fields; an empty input produces a single empty field.
std::vector<std::string> StrSplit(std::string_view input, char delimiter);

// Joins `parts` with `separator` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view separator);

// Removes ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view input);

// Returns true if `text` starts with / ends with the given affix.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// Strict parses; return nullopt on any trailing garbage or overflow.
std::optional<int64_t> ParseInt64(std::string_view text);
std::optional<double> ParseDouble(std::string_view text);

// Formats `value` with `digits` digits after the decimal point, as
// printf's "%.*f" does. `digits` is at most 100.
std::string FormatDouble(double value, int digits);

// Formats a double the way the paper prints numbers: trailing zeros after
// the decimal point are removed ("3.40" -> "3.4", "3.00" -> "3").
std::string FormatCompact(double value, int max_digits = 6);

}  // namespace mdc

#endif  // MDC_COMMON_STRINGS_H_
