#include "table/dataset.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/strings.h"
#include "common/text_table.h"

namespace mdc {
namespace {

// The interner's hash, read a word at a time: each 8-byte word is folded
// in with a multiply, a 1–7 byte tail by two overlapping 4-byte reads or
// three single bytes (either covers every byte of the tail, so equal-length
// texts that differ anywhere load different words), and the length seeds
// the state. Short keys such as zip codes cost two multiplies.
inline uint64_t HashText(std::string_view text) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15;
  const char* p = text.data();
  size_t left = text.size();
  uint64_t h = left * kMul;
  const auto fold = [&h](uint64_t word) {
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  };
  for (; left >= 8; p += 8, left -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    fold(word);
  }
  if (left >= 4) {
    uint32_t head;
    uint32_t tail;
    std::memcpy(&head, p, 4);
    std::memcpy(&tail, p + left - 4, 4);
    fold(uint64_t{head} << 32 | tail);
  } else if (left > 0) {
    const auto byte = [p](size_t i) {
      return uint64_t{static_cast<unsigned char>(p[i])};
    };
    fold(byte(0) << 16 | byte(left / 2) << 8 | byte(left - 1));
  }
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9;
  return h ^ (h >> 32);
}

}  // namespace

uint32_t StringInterner::Intern(std::string_view text,
                                std::vector<std::string>& dictionary) {
  if (2 * (size_ + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()), dictionary);
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = HashText(text) & mask;;
       i = (i + 1) & mask) {
    const uint32_t slot = slots_[i];
    if (slot == 0) {
      const auto code = static_cast<uint32_t>(dictionary.size());
      dictionary.emplace_back(text);
      slots_[i] = code + 1;
      ++size_;
      return code;
    }
    if (dictionary[slot - 1] == text) return slot - 1;
  }
}

bool StringInterner::Index(const std::vector<std::string>& dictionary) {
  size_t capacity = 16;
  while (capacity < 2 * dictionary.size()) capacity *= 2;
  slots_.assign(capacity, 0);
  size_ = 0;
  const size_t mask = capacity - 1;
  for (const std::string& entry : dictionary) {
    size_t i = HashText(entry) & mask;
    for (; slots_[i] != 0; i = (i + 1) & mask) {
      if (dictionary[slots_[i] - 1] == entry) return false;
    }
    slots_[i] = static_cast<uint32_t>(++size_);
  }
  return true;
}

void StringInterner::Rehash(size_t capacity,
                            const std::vector<std::string>& dictionary) {
  slots_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (uint32_t code = 0; code < size_; ++code) {
    size_t i = HashText(dictionary[code]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = code + 1;
  }
}

Dataset::Dataset(Schema schema)
    : schema_(std::move(schema)),
      columns_(schema_.attribute_count()),
      interners_(schema_.attribute_count()) {}

StatusOr<Dataset> Dataset::FromColumns(Schema schema,
                                       std::vector<Column> columns) {
  if (columns.size() != schema.attribute_count()) {
    return Status::InvalidArgument(
        "column count " + std::to_string(columns.size()) +
        " != schema arity " + std::to_string(schema.attribute_count()));
  }
  Dataset dataset(std::move(schema));
  for (size_t c = 0; c < columns.size(); ++c) {
    const Column& column = columns[c];
    const AttributeDef& attr = dataset.schema_.attribute(c);
    const size_t rows = attr.type == AttributeType::kInt ? column.ints.size()
                        : attr.type == AttributeType::kReal
                            ? column.reals.size()
                            : column.codes.size();
    if (column.ints.size() + column.reals.size() + column.codes.size() !=
            rows ||
        (attr.type != AttributeType::kString && !column.dictionary.empty())) {
      return Status::InvalidArgument("column '" + attr.name +
                                     "' holds arrays of another type than " +
                                     AttributeTypeName(attr.type));
    }
    if (c > 0 && rows != dataset.row_count_) {
      return Status::InvalidArgument(
          "column '" + attr.name + "' has " + std::to_string(rows) +
          " rows, expected " + std::to_string(dataset.row_count_));
    }
    dataset.row_count_ = rows;
    if (attr.type != AttributeType::kString) continue;
    if (!column.codes.empty() &&
        *std::max_element(column.codes.begin(), column.codes.end()) >=
            column.dictionary.size()) {
      return Status::OutOfRange("column '" + attr.name +
                                "' has a code beyond its dictionary");
    }
    if (!dataset.interners_[c].Index(column.dictionary)) {
      return Status::InvalidArgument("column '" + attr.name +
                                     "' repeats a dictionary entry");
    }
  }
  dataset.columns_ = std::move(columns);
  return dataset;
}

Status Dataset::AppendRow(Row row) {
  MDC_FAILPOINT("dataset.append_row");
  if (row.size() != schema_.attribute_count()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.attribute_count()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const AttributeDef& attr = schema_.attribute(i);
    bool type_ok = (attr.type == AttributeType::kInt && row[i].is_int()) ||
                   (attr.type == AttributeType::kReal && row[i].is_real()) ||
                   (attr.type == AttributeType::kString && row[i].is_string());
    if (!type_ok) {
      return Status::InvalidArgument("value type mismatch in column '" +
                                     attr.name + "'");
    }
  }
  for (size_t c = 0; c < row.size(); ++c) {
    Column& column = columns_[c];
    if (row[c].is_int()) {
      column.ints.push_back(row[c].AsInt());
    } else if (row[c].is_real()) {
      column.reals.push_back(row[c].AsReal());
    } else {
      column.codes.push_back(
          interners_[c].Intern(row[c].AsString(), column.dictionary));
    }
  }
  ++row_count_;
  return Status::Ok();
}

void Dataset::ReserveRows(size_t rows) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    switch (schema_.attribute(c).type) {
      case AttributeType::kInt:
        columns_[c].ints.reserve(rows);
        break;
      case AttributeType::kReal:
        columns_[c].reals.reserve(rows);
        break;
      case AttributeType::kString:
        columns_[c].codes.reserve(rows);
        break;
    }
  }
}

Dataset::Row Dataset::row(size_t index) const {
  MDC_CHECK_LT(index, row_count_);
  Row out;
  out.reserve(column_count());
  for (size_t c = 0; c < column_count(); ++c) out.push_back(cell(index, c));
  return out;
}

Value Dataset::cell(size_t row, size_t column) const {
  MDC_CHECK_LT(row, row_count_);
  MDC_CHECK_LT(column, schema_.attribute_count());
  const Column& col = columns_[column];
  switch (schema_.attribute(column).type) {
    case AttributeType::kInt:
      return Value(col.ints[row]);
    case AttributeType::kReal:
      return Value(col.reals[row]);
    case AttributeType::kString:
      break;
  }
  return Value(col.dictionary[col.codes[row]]);
}

void Dataset::set_cell(size_t row, size_t column, Value value) {
  MDC_CHECK_LT(row, row_count_);
  MDC_CHECK_LT(column, schema_.attribute_count());
  Column& col = columns_[column];
  switch (schema_.attribute(column).type) {
    case AttributeType::kInt:
      col.ints[row] = value.AsInt();
      return;
    case AttributeType::kReal:
      col.reals[row] = value.AsReal();
      return;
    case AttributeType::kString:
      col.codes[row] = interners_[column].Intern(value.AsString(),
                                                 col.dictionary);
      return;
  }
}

const Dataset::Column& Dataset::TypedColumn(size_t column,
                                            AttributeType type) const {
  MDC_CHECK_LT(column, schema_.attribute_count());
  MDC_CHECK_MSG(schema_.attribute(column).type == type,
                "typed column access of another type");
  return columns_[column];
}

std::span<const int64_t> Dataset::ints(size_t column) const {
  return TypedColumn(column, AttributeType::kInt).ints;
}

std::span<const double> Dataset::reals(size_t column) const {
  return TypedColumn(column, AttributeType::kReal).reals;
}

std::span<const uint32_t> Dataset::codes(size_t column) const {
  return TypedColumn(column, AttributeType::kString).codes;
}

const std::vector<std::string>& Dataset::dictionary(size_t column) const {
  return TypedColumn(column, AttributeType::kString).dictionary;
}

std::vector<Dataset::Column> Dataset::CopyColumnsExcept(
    const std::vector<size_t>& replaced) const {
  std::vector<Column> columns(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (std::find(replaced.begin(), replaced.end(), c) == replaced.end()) {
      columns[c] = columns_[c];
    }
  }
  return columns;
}

std::vector<double> Dataset::Numbers(size_t column) const {
  MDC_CHECK_LT(column, schema_.attribute_count());
  const Column& col = columns_[column];
  MDC_CHECK_MSG(schema_.attribute(column).type != AttributeType::kString,
                "Numbers on a string column");
  if (schema_.attribute(column).type == AttributeType::kReal) return col.reals;
  return std::vector<double>(col.ints.begin(), col.ints.end());
}

StatusOr<std::pair<double, double>> Dataset::NumericRange(
    size_t column) const {
  MDC_CHECK_LT(column, schema_.attribute_count());
  if (row_count_ == 0) {
    return Status::FailedPrecondition("NumericRange on empty dataset");
  }
  if (schema_.attribute(column).type == AttributeType::kString) {
    return Status::InvalidArgument("NumericRange on string column '" +
                                   schema_.attribute(column).name + "'");
  }
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double v : Numbers(column)) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return std::make_pair(lo, hi);
}

StatusOr<Dataset> Dataset::FromCsv(const Schema& schema,
                                   std::string_view text) {
  MDC_FAILPOINT("dataset.from_csv");
  Dataset dataset(schema);
  const size_t arity = schema.attribute_count();
  // Newlines bound the records, and so does the length: a record takes at
  // least one byte per field and two in all.
  dataset.ReserveRows(
      std::min(static_cast<size_t>(std::count(text.begin(), text.end(), '\n')),
               text.size() / std::max<size_t>(arity, 2)));
  std::vector<AttributeType> types;
  for (const AttributeDef& attr : schema.attributes()) {
    types.push_back(attr.type);
  }
  size_t records = 0;
  // The first header or cell error in document order. Tokenizing goes on
  // past it: a syntax error anywhere in the text takes precedence.
  Status error;
  auto parse_record = [&](std::span<const std::string_view> fields) {
    if (records++ == 0) {
      if (fields.size() != arity) {
        return Status::InvalidArgument(
            "CSV header arity does not match schema");
      }
      for (size_t i = 0; i < arity; ++i) {
        if (fields[i] != schema.attribute(i).name) {
          return Status::InvalidArgument(
              "CSV header column " + std::to_string(i) + " is '" +
              std::string(fields[i]) + "', expected '" +
              schema.attribute(i).name + "'");
        }
      }
      return Status::Ok();
    }
    if (fields.size() != arity) {
      return Status::InvalidArgument("CSV row " +
                                     std::to_string(records - 1) +
                                     " has wrong arity");
    }
    for (size_t c = 0; c < arity; ++c) {
      Column& column = dataset.columns_[c];
      switch (types[c]) {
        case AttributeType::kString:
          column.codes.push_back(
              dataset.interners_[c].Intern(fields[c], column.dictionary));
          break;
        case AttributeType::kInt:
          // Value::Parse's grammar; on a bad cell, its status.
          if (std::optional<int64_t> value = ParseInt64(fields[c])) {
            column.ints.push_back(*value);
            break;
          }
          return Value::Parse(fields[c], types[c]).status();
        case AttributeType::kReal: {
          MDC_ASSIGN_OR_RETURN(Value value, Value::Parse(fields[c], types[c]));
          column.reals.push_back(value.AsReal());
          break;
        }
      }
    }
    ++dataset.row_count_;
    return Status::Ok();
  };
  MDC_RETURN_IF_ERROR(ForEachCsvRecord(
      text, [&](std::span<const std::string_view> fields) {
        if (error.ok()) {
          error = parse_record(fields);
        } else {
          ++records;
        }
      }));
  if (records == 0) {
    return Status::InvalidArgument("CSV has no header row");
  }
  MDC_RETURN_IF_ERROR(error);
  return dataset;
}

std::string Dataset::CellText(size_t row, size_t column) const {
  const Column& col = columns_[column];
  switch (schema_.attribute(column).type) {
    case AttributeType::kInt:
      return std::to_string(col.ints[row]);
    case AttributeType::kReal:
      return FormatCompact(col.reals[row]);
    case AttributeType::kString:
      break;
  }
  return col.dictionary[col.codes[row]];
}

std::string Dataset::ToCsv() const {
  const size_t m = column_count();
  // WriteCsv's rule: a record of one empty field prints as "", because a
  // bare newline would read back as no record.
  auto escape = [m](std::string_view field) {
    return m == 1 && field.empty() ? std::string("\"\"") : CsvEscape(field);
  };
  std::string header;
  for (size_t c = 0; c < m; ++c) {
    if (c > 0) header += ',';
    header += escape(schema_.attribute(c).name);
  }
  header += '\n';

  // Each dictionary entry is escaped once; string cells then cost one
  // append, and their exact bytes size the buffer.
  std::vector<std::vector<std::string>> escaped(m);
  size_t bytes = header.size() + row_count_ * std::max<size_t>(m, 1);
  for (size_t c = 0; c < m; ++c) {
    const Column& col = columns_[c];
    if (schema_.attribute(c).type != AttributeType::kString) {
      bytes += row_count_ * 8;  // A guess; numbers grow the buffer if longer.
      continue;
    }
    escaped[c].reserve(col.dictionary.size());
    for (const std::string& entry : col.dictionary) {
      escaped[c].push_back(escape(entry));
    }
    for (uint32_t code : col.codes) bytes += escaped[c][code].size();
  }
  std::vector<AttributeType> types;
  for (const AttributeDef& attr : schema_.attributes()) {
    types.push_back(attr.type);
  }
  std::string out;
  out.reserve(bytes);
  out += header;
  char digits[24];
  for (size_t r = 0; r < row_count_; ++r) {
    for (size_t c = 0; c < m; ++c) {
      if (c > 0) out += ',';
      const Column& col = columns_[c];
      switch (types[c]) {
        case AttributeType::kInt: {
          const auto end =
              std::to_chars(digits, digits + sizeof(digits), col.ints[r]).ptr;
          out.append(digits, end);
          break;
        }
        case AttributeType::kReal:
          out += FormatCompact(col.reals[r]);
          break;
        case AttributeType::kString:
          out += escaped[c][col.codes[r]];
          break;
      }
    }
    out += '\n';
  }
  return out;
}

std::string Dataset::ToText() const {
  TextTable table;
  std::vector<std::string> header = {"#"};
  for (const AttributeDef& attr : schema_.attributes()) {
    header.push_back(attr.name);
  }
  table.SetHeader(std::move(header));
  for (size_t i = 0; i < row_count_; ++i) {
    std::vector<std::string> row = {std::to_string(i + 1)};
    for (size_t c = 0; c < column_count(); ++c) {
      row.push_back(CellText(i, c));
    }
    table.AddRow(std::move(row));
  }
  return table.Render();
}

}  // namespace mdc
