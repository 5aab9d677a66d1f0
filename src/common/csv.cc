#include "common/csv.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include <sys/stat.h>

#include "common/durable_io.h"
#include "common/failpoint.h"

namespace mdc {
namespace {

constexpr uint64_t kLow7 = 0x7f7f7f7f7f7f7f7f;
constexpr uint64_t kOnes = 0x0101010101010101;

// The high bit of every byte of `word` that is not `c`, exactly: for
// b = byte ^ c, (b & 0x7f) + 0x7f carries into the high bit unless b's
// low seven bits are zero, or-ing b adds its own high bit, and no byte
// carries into the next.
uint64_t NotByte(uint64_t word, unsigned char c) {
  const uint64_t x = word ^ (c * kOnes);
  return ((x & kLow7) + kLow7) | x;
}

// The tokenizer behind ForEachCsvRecord. The bytes that end or alter an
// unquoted field — ',', '\n', '"' and '\r' — are found eight at a time:
// each word of the text gives an exact mask with the high bit of every
// such byte set, and a word's hits are handled in order before the next
// word is loaded, so a field boundary never restarts the scan. Text
// between hits is never looked at byte by byte: an unquoted field is a
// view of the text, and a field that a quote or a '\r' moved into
// `scratch_` takes its bytes as whole runs.
class Tokenizer {
 public:
  explicit Tokenizer(std::string_view text) : text_(text) {
    if (!text.empty()) mask_ = SpecialMask(0);
    hit_ = NextSpecial();
  }

  Status ForEachRecord(
      const std::function<void(std::span<const std::string_view>)>&
          on_record) {
    const size_t n = text_.size();
    while (true) {
      // Blank lines, CRs included, make no record.
      while (hit_ == at_ && at_ < n &&
             (text_[at_] == '\r' || text_[at_] == '\n')) {
        ++at_;
        hit_ = NextSpecial();
      }
      if (at_ == n) return Status::Ok();
      fields_.clear();
      scratch_.clear();
      char terminator = ',';
      while (terminator == ',') {
        if (hit_ < n && (text_[hit_] == '"' || text_[hit_] == '\r')) {
          MDC_RETURN_IF_ERROR(CopiedField());
        } else {
          fields_.push_back(text_.substr(at_, hit_ - at_));
        }
        // hit_ is at the field's terminator, ',' or '\n', or at the end.
        terminator = hit_ < n ? text_[hit_] : '\0';
        at_ = std::min(hit_ + 1, n);
        if (hit_ < n) hit_ = NextSpecial();
      }
      on_record(fields_);
    }
  }

 private:
  // The mask of text_[at, at + 8); bytes past the end read as 0, which is
  // not special.
  uint64_t SpecialMask(size_t at) const {
    uint64_t word = 0;
    if (at + 8 <= text_.size()) {
      std::memcpy(&word, text_.data() + at, 8);
    } else {
      std::memcpy(&word, text_.data() + at, text_.size() - at);
    }
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    return ~((NotByte(word, ',') & NotByte(word, '\n') & NotByte(word, '"') &
              NotByte(word, '\r')) |
             kLow7);
  }

  // The position of the next special byte not yet handed out, or the
  // text's size when none is left.
  size_t NextSpecial() {
    while (mask_ == 0) {
      if (base_ + 8 >= text_.size()) return text_.size();
      base_ += 8;
      mask_ = SpecialMask(base_);
    }
    const size_t pos = base_ + static_cast<size_t>(std::countr_zero(mask_)) / 8;
    mask_ &= mask_ - 1;
    return pos;
  }

  // The field from at_, whose first special byte (hit_) is a quote or a
  // '\r': it is built in scratch_, a quote opening a quoted section only
  // where the field is still empty and every '\r' outside quotes dropped.
  // Stops with hit_ at the field's terminator or at the end of the text.
  Status CopiedField() {
    const size_t n = text_.size();
    const size_t start = scratch_.size();
    // text_[from, hit_) is copied when the next hit that acts arrives.
    size_t from = at_;
    bool in_quotes = false;
    while (hit_ < n) {
      const char c = text_[hit_];
      if (!in_quotes && (c == ',' || c == '\n')) break;
      if (in_quotes && c != '"') {
        hit_ = NextSpecial();  // ',', '\n' and '\r' are data in quotes.
        continue;
      }
      Append(text_.substr(from, hit_ - from));
      from = hit_ + 1;
      if (!in_quotes) {
        if (c == '"' && scratch_.size() != start) {
          return Status::InvalidArgument(
              "quote in the middle of an unquoted CSV field");
        }
        in_quotes = c == '"';
      } else if (hit_ + 1 < n && text_[hit_ + 1] == '"') {
        hit_ = NextSpecial();  // A doubled quote: the second one is data.
      } else {
        in_quotes = false;
      }
      hit_ = NextSpecial();
    }
    if (in_quotes) {
      return Status::InvalidArgument("unterminated quoted CSV field");
    }
    Append(text_.substr(from, hit_ - from));
    fields_.push_back(std::string_view(scratch_).substr(start));
    return Status::Ok();
  }

  // Appends to scratch_. When that moves its buffer, the record's fields
  // that view the old one are re-pointed.
  void Append(std::string_view bytes) {
    const char* old = scratch_.data();
    const size_t old_size = scratch_.size();
    scratch_.append(bytes);
    if (scratch_.data() == old) return;
    for (std::string_view& field : fields_) {
      const auto offset = static_cast<size_t>(
          reinterpret_cast<uintptr_t>(field.data()) -
          reinterpret_cast<uintptr_t>(old));
      if (offset <= old_size && field.size() <= old_size - offset) {
        field = std::string_view(scratch_).substr(offset, field.size());
      }
    }
  }

  const std::string_view text_;
  size_t base_ = 0;    // Offset of the word mask_ covers.
  uint64_t mask_ = 0;  // That word's special bytes not yet handed out.
  size_t hit_ = 0;     // The first special byte not yet handled.
  size_t at_ = 0;      // The first byte not yet consumed.
  std::vector<std::string_view> fields_;
  std::string scratch_;
};

}  // namespace

Status ForEachCsvRecord(
    std::string_view text,
    const std::function<void(std::span<const std::string_view>)>& on_record) {
  MDC_FAILPOINT("csv.parse");
  return Tokenizer(text).ForEachRecord(on_record);
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
  // One buffer of the file's size; a file that grew since, or reports no
  // size (a pipe), reads on in chunks.
  std::string contents;
  struct stat info;
  if (::fstat(fileno(file), &info) == 0 && info.st_size > 0) {
    contents.resize(static_cast<size_t>(info.st_size));
    contents.resize(std::fread(contents.data(), 1, contents.size(), file));
  }
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
