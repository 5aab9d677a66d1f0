// Minimal RFC-4180-style CSV reading and writing.
//
// Supports quoted fields containing commas, quotes (doubled), and newlines.
// Used by table I/O (Dataset::FromCsv / Dataset::ToCsv) and by the bench
// harness to dump series for plotting.

#ifndef MDC_COMMON_CSV_H_
#define MDC_COMMON_CSV_H_

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mdc {

// The one CSV tokenizer. Splits `text` into records and calls `on_record`
// with each record's fields, in order. Handles \n and \r\n line endings;
// blank lines make no record, and a trailing newline does not produce an
// empty final record. A field that needed no unquoting views `text`, any
// other views scratch storage; either view lives only for the call.
// Returns the first syntax error — a quote inside an unquoted field, or an
// unterminated quoted field (found at the end of the text) — after the
// records before it were delivered.
Status ForEachCsvRecord(
    std::string_view text,
    const std::function<void(std::span<const std::string_view>)>& on_record);

// Parses a whole CSV document into rows of fields (ForEachCsvRecord).
StatusOr<std::vector<std::vector<std::string>>> ParseCsv(
    std::string_view text);

// Quotes `field` if it contains a comma, quote, or newline.
std::string CsvEscape(std::string_view field);

// Serializes rows to CSV text with \n line endings.
std::string WriteCsv(const std::vector<std::vector<std::string>>& rows);

// File helpers.
StatusOr<std::string> ReadFileToString(const std::string& path);
Status WriteStringToFile(const std::string& path, std::string_view contents);

}  // namespace mdc

#endif  // MDC_COMMON_CSV_H_
