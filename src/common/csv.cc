#include "common/csv.h"

#include <array>
#include <cerrno>
#include <cstdio>

#include "common/durable_io.h"
#include "common/failpoint.h"

namespace mdc {
namespace {

// The bytes that end or alter an unquoted field.
constexpr auto kSpecial = [] {
  std::array<bool, 256> special{};
  for (unsigned char c : {',', '\n', '"', '\r'}) special[c] = true;
  return special;
}();

bool IsSpecial(char c) { return kSpecial[static_cast<unsigned char>(c)]; }

}  // namespace

Status ForEachCsvRecord(
    std::string_view text,
    const std::function<void(std::span<const std::string_view>)>& on_record) {
  MDC_FAILPOINT("csv.parse");
  // A field is a slice of `text` until a quote or a dropped '\r' moves it
  // into `scratch`. Spans are offsets, not views, while the record grows:
  // `scratch` may reallocate.
  struct Span {
    bool copied = false;
    size_t begin = 0;
    size_t size = 0;
  };
  std::vector<Span> spans;
  std::vector<std::string_view> fields;
  std::string scratch;
  const size_t n = text.size();
  size_t i = 0;
  bool in_record = false;
  while (true) {
    if (!in_record) {
      // Blank lines, CRs included, make no record.
      while (i < n && (text[i] == '\r' || text[i] == '\n')) ++i;
      if (i == n) return Status::Ok();
      in_record = true;
    }
    Span span{false, i, 0};
    bool in_quotes = false;
    char terminator = 0;  // ',' or '\n'; 0 at the end of the text.
    while (i < n) {
      // A slice grows to the next byte that needs the state machine.
      if (!span.copied && !in_quotes) {
        while (i < n && !IsSpecial(text[i])) ++i;
        if (i == n) break;
      }
      const char c = text[i];
      if (in_quotes) {
        if (c == '"' && i + 1 < n && text[i + 1] == '"') {
          scratch += '"';
          i += 2;
        } else {
          if (c == '"') {
            in_quotes = false;
          } else {
            scratch += c;
          }
          ++i;
        }
        continue;
      }
      if (c == ',' || c == '\n') {
        terminator = c;
        break;
      }
      if (c == '"' || c == '\r') {
        const bool empty =
            span.copied ? scratch.size() == span.begin : i == span.begin;
        if (c == '"' && !empty) {
          return Status::InvalidArgument(
              "quote in the middle of an unquoted CSV field");
        }
        if (!span.copied) {
          const size_t begin = span.begin;
          span = {true, scratch.size(), 0};
          scratch.append(text.substr(begin, i - begin));
        }
        in_quotes = c == '"';
        ++i;
        continue;
      }
      if (span.copied) scratch += c;
      ++i;
    }
    if (in_quotes) {
      return Status::InvalidArgument("unterminated quoted CSV field");
    }
    span.size = span.copied ? scratch.size() - span.begin : i - span.begin;
    spans.push_back(span);
    if (i < n) ++i;  // Past the terminator.
    if (terminator == ',') continue;
    fields.clear();
    for (const Span& s : spans) {
      fields.push_back(s.copied
                           ? std::string_view(scratch).substr(s.begin, s.size)
                           : text.substr(s.begin, s.size));
    }
    on_record(fields);
    spans.clear();
    scratch.clear();
    in_record = false;
  }
}

StatusOr<std::vector<std::vector<std::string>>> ParseCsv(
    std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  MDC_RETURN_IF_ERROR(ForEachCsvRecord(
      text, [&rows](std::span<const std::string_view> fields) {
        rows.emplace_back(fields.begin(), fields.end());
      }));
  return rows;
}

std::string CsvEscape(std::string_view field) {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return std::string(field);
  std::string escaped = "\"";
  for (char c : field) {
    if (c == '"') escaped += '"';
    escaped += c;
  }
  escaped += '"';
  return escaped;
}

std::string WriteCsv(const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  for (const auto& row : rows) {
    if (row.size() == 1 && row[0].empty()) {
      // A bare newline would read back as "no record"; an explicitly
      // quoted empty field round-trips.
      out += "\"\"\n";
      continue;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      out += CsvEscape(row[i]);
    }
    out += '\n';
  }
  return out;
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  MDC_FAILPOINT("csv.read_file");
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    // ENOENT (missing) and EACCES (permission) map to distinct codes so
    // callers can tell "wrong path" from "wrong credentials".
    return ErrnoToStatus(errno, "cannot open file " + path);
  }
  std::string contents;
  char buffer[1 << 14];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, n);
  }
  bool read_error = std::ferror(file) != 0;
  int read_errno = errno;
  std::fclose(file);
  if (read_error) {
    return ErrnoToStatus(read_errno, "short read on file " + path);
  }
  MDC_FAILPOINT("csv.read_short");
  return contents;
}

Status WriteStringToFile(const std::string& path, std::string_view contents) {
  MDC_FAILPOINT("csv.write_file");
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return ErrnoToStatus(errno, "cannot open file for writing " + path);
  }
  size_t written = std::fwrite(contents.data(), 1, contents.size(), file);
  bool write_error = written != contents.size();
  if (std::fclose(file) != 0) write_error = true;
  if (write_error) {
    return Status::Internal("write error on file: " + path);
  }
  return Status::Ok();
}

}  // namespace mdc
