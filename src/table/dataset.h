// In-memory columnar microdata set.
//
// A Dataset is an immutable-schema, mutable-rows table. Both original
// microdata and anonymized releases are Datasets; anonymized cells hold
// generalized labels (string Values) in the quasi-identifier columns while
// sensitive columns keep their original values (the paper's Tables 2–3 show
// exactly this shape).
//
// Each column is one typed array: int64_t for int columns, double for real
// columns, and for string columns uint32_t codes into a dictionary that
// holds each string once. A dictionary may hold entries no row uses (a
// release's level label table, a value set_cell replaced), so code counts
// are not distinct counts. A column's distinct values, sorted, come from
// EncodedView (table/encoded_view.h), which counts only the codes that
// occur and codes the column in that order.

#ifndef MDC_TABLE_DATASET_H_
#define MDC_TABLE_DATASET_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "table/schema.h"
#include "table/value.h"

namespace mdc {

// Maps strings to dense codes in first-seen order, appending each new
// string to a dictionary the caller owns. The table stores codes, not
// strings, so it is cheap to copy and stays valid when its dictionary is
// moved alongside it.
class StringInterner {
 public:
  // The code of `text` in `dictionary`, appending `text` if it is new.
  uint32_t Intern(std::string_view text, std::vector<std::string>& dictionary);

  // Re-indexes every entry of `dictionary`; false if two entries are equal.
  bool Index(const std::vector<std::string>& dictionary);

 private:
  void Rehash(size_t capacity, const std::vector<std::string>& dictionary);

  std::vector<uint32_t> slots_;  // code + 1 per slot; 0 marks a free slot.
  size_t size_ = 0;
};

class Dataset {
 public:
  using Row = std::vector<Value>;

  // One column's storage. The schema type picks the members in use: `ints`
  // for kInt, `reals` for kReal, `codes` into `dictionary` for kString;
  // the others stay empty.
  struct Column {
    std::vector<int64_t> ints;
    std::vector<double> reals;
    std::vector<uint32_t> codes;
    std::vector<std::string> dictionary;
  };

  // An empty dataset with an empty schema; useful as a placeholder in
  // result structs that are filled in later.
  Dataset() = default;

  explicit Dataset(Schema schema);

  // Builds a dataset from whole columns, one per schema attribute. Fails
  // unless every column holds exactly its type's arrays, all of one row
  // count, every code indexes its dictionary and no dictionary repeats a
  // string.
  static StatusOr<Dataset> FromColumns(Schema schema,
                                       std::vector<Column> columns);

  const Schema& schema() const { return schema_; }
  size_t row_count() const { return row_count_; }
  size_t column_count() const { return schema_.attribute_count(); }

  // Appends a row; fails if arity or value types disagree with the schema.
  Status AppendRow(Row row);

  // Pre-allocates capacity for `rows` rows (callers that know the final
  // size avoid repeated growth).
  void ReserveRows(size_t rows);

  // Cells are materialized on demand: a string cell copies its dictionary
  // entry. Loops over many cells read the typed accessors below instead.
  Row row(size_t index) const;
  Value cell(size_t row, size_t column) const;
  // MDC_CHECKs that `value` has the column's type.
  void set_cell(size_t row, size_t column, Value value);

  // Typed column access; each MDC_CHECKs the column's type.
  std::span<const int64_t> ints(size_t column) const;
  std::span<const double> reals(size_t column) const;
  std::span<const uint32_t> codes(size_t column) const;
  const std::vector<std::string>& dictionary(size_t column) const;

  // Copies of every column but those in `replaced`, which are left empty:
  // the start of a release whose `replaced` columns the caller fills.
  std::vector<Column> CopyColumnsExcept(
      const std::vector<size_t>& replaced) const;

  // An int or real column as doubles (Value::AsNumber per cell).
  std::vector<double> Numbers(size_t column) const;

  // [min, max] of a numeric column; fails on empty data or string column.
  StatusOr<std::pair<double, double>> NumericRange(size_t column) const;

  // Parses CSV `text` whose header must match the schema attribute names
  // in order; cells are parsed per the schema types (Value::Parse).
  static StatusOr<Dataset> FromCsv(const Schema& schema,
                                   std::string_view text);

  // Serializes with a header row.
  std::string ToCsv() const;

  // Aligned console rendering (used by examples and repro binaries).
  std::string ToText() const;

 private:
  const Column& TypedColumn(size_t column, AttributeType type) const;
  // Value::ToString of a cell without materializing the Value.
  std::string CellText(size_t row, size_t column) const;

  Schema schema_;
  size_t row_count_ = 0;
  std::vector<Column> columns_;
  // Build-time index of each string column's dictionary, kept current by
  // every non-const method; const methods never touch it.
  std::vector<StringInterner> interners_;
};

}  // namespace mdc

#endif  // MDC_TABLE_DATASET_H_
