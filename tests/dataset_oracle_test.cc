// Differential oracle for the columnar Dataset (table/dataset.h). The
// reference is the row-store path the columns replaced, kept here in
// test-local form: a whole-document CSV parse into rows of strings, then
// Value::Parse per cell into a vector of Value rows, and WriteCsv over
// Value::ToString cells for the render. On thousands of random texts and
// schemas, FromCsv must return the reference's Status, code and message,
// and on success the same cells (type and sign of zero included) and the
// same ToCsv bytes. The derived views (NumericRange, EncodedView) are
// checked against their definitions on datasets whose dictionaries hold
// entries no row uses.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "anonymize/encoded_eval.h"
#include "common/csv.h"
#include "common/rng.h"
#include "paper/paper_data.h"
#include "table/dataset.h"
#include "table/encoded_view.h"

namespace mdc {
namespace {

using Rows = std::vector<std::vector<std::string>>;

// The whole-document parse FromCsv used to run first: every syntax error
// in the text is found before any header or cell is looked at.
StatusOr<Rows> ReferenceParseCsv(std::string_view text) {
  Rows rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool row_started = false;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        field += c;
        ++i;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!field.empty()) {
          return Status::InvalidArgument(
              "quote in the middle of an unquoted CSV field");
        }
        in_quotes = true;
        row_started = true;
        ++i;
        break;
      case ',':
        row.push_back(std::move(field));
        field.clear();
        row_started = true;
        ++i;
        break;
      case '\r':
        ++i;
        break;
      case '\n':
        if (row_started || !field.empty() || !row.empty()) {
          row.push_back(std::move(field));
          field.clear();
          rows.push_back(std::move(row));
          row.clear();
        }
        row_started = false;
        ++i;
        break;
      default:
        field += c;
        row_started = true;
        ++i;
        break;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  if (row_started || !field.empty() || !row.empty()) {
    row.push_back(std::move(field));
    rows.push_back(std::move(row));
  }
  return rows;
}

// The row store: header checks, then Value::Parse per cell.
StatusOr<std::vector<Dataset::Row>> ReferenceFromCsv(const Schema& schema,
                                                     std::string_view text) {
  MDC_ASSIGN_OR_RETURN(Rows rows, ReferenceParseCsv(text));
  if (rows.empty()) {
    return Status::InvalidArgument("CSV has no header row");
  }
  const std::vector<std::string>& header = rows[0];
  if (header.size() != schema.attribute_count()) {
    return Status::InvalidArgument("CSV header arity does not match schema");
  }
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] != schema.attribute(i).name) {
      return Status::InvalidArgument("CSV header column " +
                                     std::to_string(i) + " is '" + header[i] +
                                     "', expected '" +
                                     schema.attribute(i).name + "'");
    }
  }
  std::vector<Dataset::Row> out;
  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != schema.attribute_count()) {
      return Status::InvalidArgument("CSV row " + std::to_string(r) +
                                     " has wrong arity");
    }
    Dataset::Row row;
    for (size_t c = 0; c < rows[r].size(); ++c) {
      MDC_ASSIGN_OR_RETURN(Value v,
                           Value::Parse(rows[r][c], schema.attribute(c).type));
      row.push_back(std::move(v));
    }
    out.push_back(std::move(row));
  }
  return out;
}

std::string ReferenceToCsv(const Schema& schema,
                           const std::vector<Dataset::Row>& rows) {
  Rows text;
  std::vector<std::string> header;
  for (const AttributeDef& attr : schema.attributes()) {
    header.push_back(attr.name);
  }
  text.push_back(std::move(header));
  for (const Dataset::Row& row : rows) {
    std::vector<std::string> out;
    for (const Value& v : row) out.push_back(v.ToString());
    text.push_back(std::move(out));
  }
  return WriteCsv(text);
}

// Same type, same payload, same sign of zero.
bool SameCell(const Value& a, const Value& b) {
  if (a.is_int() != b.is_int() || a.is_real() != b.is_real()) return false;
  if (a.is_real() && std::signbit(a.AsReal()) != std::signbit(b.AsReal())) {
    return false;
  }
  return a == b;
}

// ------------------------------------------------------- random inputs

std::string Pick(Rng& rng, const std::vector<std::string>& options) {
  return options[rng.NextBelow(options.size())];
}

// In a noisy case about one field in eight is malformed or out of range;
// a clean case has none, so both outcomes are common.
std::string RandomInt(Rng& rng, bool noisy) {
  if (noisy && rng.NextBelow(8) == 0) {
    return Pick(rng, {"", "12x", "1.5", " 7 ", "-", "+3", "0x10",
                      "9223372036854775808", "-9223372036854775808", "--1"});
  }
  return std::to_string(static_cast<int64_t>(rng.NextBelow(2001)) - 1000);
}

std::string RandomReal(Rng& rng, bool noisy) {
  if (noisy && rng.NextBelow(8) == 0) {
    return Pick(rng, {"", "1.2.3", "abc", "nan", "-nan", "NaN", "inf",
                      "-inf", "infinity", "1e999", " 2.5", "1e-320", "0x1p3",
                      "5e"});
  }
  switch (rng.NextBelow(6)) {
    case 0:
      return Pick(rng, {"0", "-0", "0.0", "-0.0", "0.0000001", "-0.0000004"});
    case 1:
      return std::to_string(static_cast<int64_t>(rng.NextBelow(200)) - 100);
    case 2:
      return Pick(rng, {"1e5", "2.5E-3", "1234567.25", "0.1234565",
                        "0.1234575", "-1e300", "3.14159265358979"});
    default: {
      char buffer[40];
      std::snprintf(buffer, sizeof(buffer), "%.*f",
                    static_cast<int>(rng.NextBelow(9)),
                    rng.NextDouble() * 2000.0 - 1000.0);
      return buffer;
    }
  }
}

std::string RandomString(Rng& rng) {
  static const std::vector<std::string> kPieces = {
      "a", "b", "Zz", " ", ",", "\"", "\n", "\r", "\r\n", "\xc3\xa9",
      "\xff", "\x80", "x y", "130**", "*", "[1-2]"};
  std::string out;
  const size_t length = rng.NextBelow(4);
  for (size_t i = 0; i < length; ++i) out += Pick(rng, kPieces);
  return out;
}

// A field as it appears in the text: quoted when it must be, sometimes
// when it need not be, and sometimes malformed.
std::string Encode(Rng& rng, const std::string& field, bool noisy) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  switch (noisy ? rng.NextBelow(40) : 3) {
    case 0:
      return "\"" + field;  // Unterminated.
    case 1:
      return field + "\"x";  // A quote inside an unquoted field.
    case 2:
      return "\"" + field + "\"tail";  // Text after a closing quote.
    default:
      break;
  }
  if (!needs_quotes && rng.NextBelow(4) != 0) return field;
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  return quoted + "\"";
}

struct RandomCase {
  Schema schema;
  std::string text;
};

RandomCase MakeCase(Rng& rng) {
  const size_t columns = 1 + rng.NextBelow(4);
  std::vector<AttributeDef> attributes;
  static const std::vector<std::string> kNames = {"a", "bb", "c d", "e,f",
                                                  "g\"h", "\xc3\xa9t"};
  for (size_t c = 0; c < columns; ++c) {
    const auto type = static_cast<AttributeType>(rng.NextBelow(3));
    attributes.push_back({kNames[c] + std::to_string(c), type,
                          AttributeRole::kQuasiIdentifier});
  }
  RandomCase out{Schema::Create(attributes).value(), ""};
  const bool noisy = rng.NextBelow(2) == 0;
  const std::string eol = rng.NextBelow(3) == 0 ? "\r\n" : "\n";
  auto line = [&](std::vector<std::string> fields) {
    if (noisy && rng.NextBelow(12) == 0) fields.pop_back();  // Short.
    if (noisy && rng.NextBelow(12) == 0) fields.push_back("7");  // Long.
    std::string text;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) text += ',';
      text += Encode(rng, fields[i], noisy);
    }
    return text;
  };
  if (!noisy || rng.NextBelow(20) != 0) {  // Otherwise: no header at all.
    std::vector<std::string> header;
    for (const AttributeDef& attr : attributes) header.push_back(attr.name);
    if (noisy && rng.NextBelow(8) == 0) {
      header[rng.NextBelow(columns)] = "wrong";
    }
    out.text += line(header) + eol;
  }
  const size_t rows = rng.NextBelow(9);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextBelow(10) == 0) out.text += eol;  // A blank line.
    std::vector<std::string> fields;
    for (const AttributeDef& attr : attributes) {
      switch (attr.type) {
        case AttributeType::kInt:
          fields.push_back(RandomInt(rng, noisy));
          break;
        case AttributeType::kReal:
          fields.push_back(RandomReal(rng, noisy));
          break;
        case AttributeType::kString:
          fields.push_back(RandomString(rng));
          break;
      }
    }
    out.text += line(fields);
    if (r + 1 < rows || rng.NextBelow(5) != 0) out.text += eol;
  }
  return out;
}

void ExpectMatchesReference(const Schema& schema, const std::string& text) {
  auto expected = ReferenceFromCsv(schema, text);
  auto actual = Dataset::FromCsv(schema, text);
  ASSERT_EQ(actual.status().code(), expected.status().code())
      << actual.status().ToString() << " vs " << expected.status().ToString();
  ASSERT_EQ(actual.status().message(), expected.status().message());
  if (!expected.ok()) return;
  ASSERT_EQ(actual->row_count(), expected->size());
  for (size_t r = 0; r < expected->size(); ++r) {
    EXPECT_EQ(actual->row(r).size(), (*expected)[r].size());
    for (size_t c = 0; c < schema.attribute_count(); ++c) {
      EXPECT_TRUE(SameCell(actual->cell(r, c), (*expected)[r][c]))
          << "row " << r << " column " << c << ": "
          << actual->cell(r, c).ToString() << " vs "
          << (*expected)[r][c].ToString();
    }
  }
  EXPECT_EQ(actual->ToCsv(), ReferenceToCsv(schema, *expected));
}

TEST(DatasetOracleTest, RandomTextsMatchTheRowStore) {
  Rng rng(20261017);
  size_t parsed = 0;
  size_t rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    RandomCase c = MakeCase(rng);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + c.text);
    ExpectMatchesReference(c.schema, c.text);
    if (HasFatalFailure()) return;
    (ReferenceFromCsv(c.schema, c.text).ok() ? parsed : rejected) += 1;
  }
  // Both outcomes are exercised in bulk.
  EXPECT_GT(parsed, 500u);
  EXPECT_GT(rejected, 500u);
}

TEST(DatasetOracleTest, PrecedenceAndEdgeCases) {
  Schema one = Schema::Create({{"v", AttributeType::kString,
                                AttributeRole::kQuasiIdentifier}})
                   .value();
  Schema mixed =
      Schema::Create(
          {{"n", AttributeType::kInt, AttributeRole::kQuasiIdentifier},
           {"s", AttributeType::kString, AttributeRole::kSensitive}})
          .value();
  for (const std::string& text : {
           // A cell error before a later syntax error: the syntax wins.
           std::string("n,s\nxx,a\n1,\"b\n"),
           std::string("n,s\n1,a,b\n2,b\"c\n"),
           std::string("n,x\n1,a\n\"\n"),
           // Empty fields in a one-column file render as "".
           std::string("v\n\"\"\n\"\"\n"),
           std::string("v\nx\n\"\"\r\n\r\n\"\"\n"),
           std::string(""),
           std::string("\n\r\n"),
           std::string("n,s\n"),
           std::string("n,s\n-0,\n"),
           std::string("n,s\n1,\xff\xfe\n2,\"\"\"\"\n"),
       }) {
    SCOPED_TRACE(text);
    ExpectMatchesReference(one, text);
    ExpectMatchesReference(mixed, text);
  }
  Schema real = Schema::Create({{"r", AttributeType::kReal,
                                 AttributeRole::kQuasiIdentifier}})
                    .value();
  ExpectMatchesReference(real, "r\n-0\n0\n-0.0000001\n1e-320\n");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(DatasetOracleTest, DataFilesRoundTripByteForByte) {
  const struct {
    std::string path;
    std::string schema;
  } files[] = {
      {std::string(MDC_TEST_DATA_DIR) + "/census_2000.csv",
       "age:int:qi,zip:string:qi,education:string:qi,marital:string:qi,"
       "occupation:string:qi,disease:string:sensitive"},
      {std::string(MDC_EXAMPLES_DATA_DIR) + "/patients.csv",
       "zip:string:qi,age:int:qi,marital:string:qi,diagnosis:string:"
       "sensitive"},
  };
  for (const auto& file : files) {
    SCOPED_TRACE(file.path);
    const std::string text = ReadFile(file.path);
    Schema schema = ParseSchemaSpec(file.schema).value();
    auto parsed = Dataset::FromCsv(schema, text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->ToCsv(), text);
    ExpectMatchesReference(schema, text);
  }
}

// NumericRange and EncodedView::Build against their
// definitions: the sorted distinct cells, the min and max of the cells as
// numbers, and each row's lower_bound index among the distinct cells.
void ExpectDerivedViewsMatchDefinitions(const Dataset& data) {
  std::vector<size_t> columns(data.column_count());
  for (size_t c = 0; c < columns.size(); ++c) columns[c] = c;
  auto view = EncodedView::Build(data, columns);
  ASSERT_TRUE(view.ok());
  for (size_t c = 0; c < data.column_count(); ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    std::vector<Value> cells;
    for (size_t r = 0; r < data.row_count(); ++r) {
      cells.push_back(data.cell(r, c));
    }
    std::vector<Value> distinct = cells;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    EXPECT_EQ(view->distinct_values(c), distinct);
    for (size_t r = 0; r < data.row_count(); ++r) {
      EXPECT_EQ(static_cast<size_t>(view->codes(c)[r]),
                static_cast<size_t>(std::lower_bound(distinct.begin(),
                                                     distinct.end(), cells[r]) -
                                    distinct.begin()));
    }
    if (data.schema().attribute(c).type != AttributeType::kString) {
      double lo = cells[0].AsNumber();
      double hi = lo;
      for (const Value& v : cells) {
        lo = std::min(lo, v.AsNumber());
        hi = std::max(hi, v.AsNumber());
      }
      auto range = data.NumericRange(c);
      ASSERT_TRUE(range.ok());
      EXPECT_EQ(range->first, lo);
      EXPECT_EQ(range->second, hi);
    }
  }
}

TEST(DatasetOracleTest, SetCellOrphansCountOnlyPresentCodes) {
  auto table1 = paper::Table1();
  ASSERT_TRUE(table1.ok());
  Dataset data = **table1;
  // Rewrite every occurrence of the first row's marital value: its
  // dictionary entry stays behind with no row using it.
  const std::string orphan = data.cell(0, paper::kMaritalColumn).AsString();
  const size_t entries = data.dictionary(paper::kMaritalColumn).size();
  for (size_t r = 0; r < data.row_count(); ++r) {
    if (data.cell(r, paper::kMaritalColumn).AsString() == orphan) {
      data.set_cell(r, paper::kMaritalColumn, Value("Orphaned-Not"));
    }
  }
  data.set_cell(1, 1, Value(int64_t{-7}));
  ASSERT_EQ(data.dictionary(paper::kMaritalColumn).size(), entries + 1);
  auto view = EncodedView::Build(data, {paper::kMaritalColumn});
  ASSERT_TRUE(view.ok());
  for (const Value& v : view->distinct_values(0)) {
    EXPECT_NE(v.AsString(), orphan);
  }
  ExpectDerivedViewsMatchDefinitions(data);
}

TEST(DatasetOracleTest, MaterializedLabelTablesCountOnlyPresentCodes) {
  auto table1 = paper::Table1();
  ASSERT_TRUE(table1.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  auto evaluator = EncodedNodeEvaluator::Build(*table1, *hierarchies);
  ASSERT_TRUE(evaluator.ok());
  const LatticeNode node = {1, 1, 1};
  auto evaluation = evaluator->Evaluate(node, 2, {});
  ASSERT_TRUE(evaluation.ok());
  auto materialized = evaluator->Materialize(node, *evaluation, "oracle");
  ASSERT_TRUE(materialized.ok());
  const Dataset& release = materialized->anonymization.release;
  // The label tables hold "*" and labels of other levels' values that no
  // row of this release carries.
  auto view = EncodedView::Build(release, hierarchies->columns());
  ASSERT_TRUE(view.ok());
  bool unused_labels = false;
  for (size_t pos = 0; pos < hierarchies->columns().size(); ++pos) {
    unused_labels = unused_labels ||
                    release.dictionary(hierarchies->columns()[pos]).size() >
                        view->distinct_values(pos).size();
  }
  EXPECT_TRUE(unused_labels);
  ExpectDerivedViewsMatchDefinitions(release);
}

}  // namespace
}  // namespace mdc
