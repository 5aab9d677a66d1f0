// Tests for table/schema.h and table/dataset.h.

#include <gtest/gtest.h>

#include <cmath>

#include "table/dataset.h"
#include "table/encoded_view.h"
#include "table/schema.h"

namespace mdc {
namespace {

Schema TestSchema() {
  auto schema = Schema::Create({
      {"zip", AttributeType::kString, AttributeRole::kQuasiIdentifier},
      {"age", AttributeType::kInt, AttributeRole::kQuasiIdentifier},
      {"disease", AttributeType::kString, AttributeRole::kSensitive},
      {"note", AttributeType::kString, AttributeRole::kInsensitive},
  });
  MDC_CHECK(schema.ok());
  return std::move(schema).value();
}

TEST(SchemaTest, RejectsDuplicateNames) {
  auto schema = Schema::Create({{"a", AttributeType::kInt},
                                {"a", AttributeType::kInt}});
  EXPECT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, RejectsEmptyName) {
  auto schema = Schema::Create({{"", AttributeType::kInt}});
  EXPECT_FALSE(schema.ok());
}

TEST(SchemaTest, IndexOf) {
  Schema schema = TestSchema();
  auto idx = schema.IndexOf("age");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_FALSE(schema.IndexOf("nope").ok());
}

TEST(SchemaTest, RoleQueries) {
  Schema schema = TestSchema();
  EXPECT_EQ(schema.QuasiIdentifierIndices(), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(schema.SensitiveIndices(), (std::vector<size_t>{2}));
  EXPECT_EQ(schema.IndicesWithRole(AttributeRole::kInsensitive),
            (std::vector<size_t>{3}));
  EXPECT_TRUE(schema.IndicesWithRole(AttributeRole::kIdentifier).empty());
}

TEST(SchemaTest, RoleNames) {
  EXPECT_STREQ(AttributeRoleName(AttributeRole::kQuasiIdentifier),
               "quasi-identifier");
  EXPECT_STREQ(AttributeRoleName(AttributeRole::kSensitive), "sensitive");
}

TEST(DatasetTest, AppendAndAccess) {
  Dataset data(TestSchema());
  ASSERT_TRUE(data.AppendRow({Value("13053"), Value(int64_t{28}),
                              Value("Flu"), Value("n1")})
                  .ok());
  EXPECT_EQ(data.row_count(), 1u);
  EXPECT_EQ(data.cell(0, 0).AsString(), "13053");
  EXPECT_EQ(data.cell(0, 1).AsInt(), 28);
}

TEST(DatasetTest, RejectsWrongArity) {
  Dataset data(TestSchema());
  EXPECT_FALSE(data.AppendRow({Value("13053")}).ok());
}

TEST(DatasetTest, RejectsWrongType) {
  Dataset data(TestSchema());
  EXPECT_FALSE(data.AppendRow({Value("13053"), Value("not-an-int"),
                               Value("Flu"), Value("n")})
                   .ok());
}

TEST(DatasetTest, SetCell) {
  Dataset data(TestSchema());
  ASSERT_TRUE(data.AppendRow({Value("13053"), Value(int64_t{28}),
                              Value("Flu"), Value("n")})
                  .ok());
  data.set_cell(0, 1, Value(int64_t{30}));
  EXPECT_EQ(data.cell(0, 1).AsInt(), 30);
}

TEST(DatasetTest, ColumnAndDistinct) {
  Dataset data(TestSchema());
  for (int64_t age : {30, 20, 30, 40}) {
    ASSERT_TRUE(data.AppendRow({Value("1"), Value(age), Value("d"),
                                Value("n")})
                    .ok());
  }
  EXPECT_EQ(data.ints(1).size(), 4u);
  auto view = EncodedView::Build(data, {1});
  ASSERT_TRUE(view.ok());
  const std::vector<Value>& distinct = view->distinct_values(0);
  ASSERT_EQ(distinct.size(), 3u);
  EXPECT_EQ(distinct[0].AsInt(), 20);
  EXPECT_EQ(distinct[2].AsInt(), 40);
}

TEST(DatasetTest, NumericRange) {
  Dataset data(TestSchema());
  for (int64_t age : {30, 20, 45}) {
    ASSERT_TRUE(data.AppendRow({Value("1"), Value(age), Value("d"),
                                Value("n")})
                    .ok());
  }
  auto range = data.NumericRange(1);
  ASSERT_TRUE(range.ok());
  EXPECT_DOUBLE_EQ(range->first, 20.0);
  EXPECT_DOUBLE_EQ(range->second, 45.0);
}

TEST(DatasetTest, NumericRangeErrors) {
  Dataset data(TestSchema());
  EXPECT_EQ(data.NumericRange(1).status().code(),
            StatusCode::kFailedPrecondition);  // Empty.
  ASSERT_TRUE(data.AppendRow({Value("1"), Value(int64_t{5}), Value("d"),
                              Value("n")})
                  .ok());
  EXPECT_EQ(data.NumericRange(0).status().code(),
            StatusCode::kInvalidArgument);  // String column.
}

TEST(DatasetTest, CsvRoundTrip) {
  Dataset data(TestSchema());
  ASSERT_TRUE(data.AppendRow({Value("13053"), Value(int64_t{28}),
                              Value("Flu"), Value("has, comma")})
                  .ok());
  std::string csv = data.ToCsv();
  auto parsed = Dataset::FromCsv(TestSchema(), csv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->row_count(), 1u);
  EXPECT_EQ(parsed->cell(0, 3).AsString(), "has, comma");
  EXPECT_EQ(parsed->cell(0, 1).AsInt(), 28);
}

TEST(DatasetTest, FromCsvRejectsNonFiniteReals) {
  Schema schema = Schema::Create({{"x", AttributeType::kReal,
                                   AttributeRole::kQuasiIdentifier}})
                      .value();
  for (const char* text : {"nan", "-nan", "NaN", "inf", "-inf", "infinity"}) {
    SCOPED_TRACE(text);
    auto parsed = Dataset::FromCsv(schema, "x\n1.5\n" + std::string(text) +
                                               "\n");
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(parsed.status().message(),
              "cannot parse real: '" + std::string(text) + "' (not finite)");
  }
  // AppendRow keeps accepting any double.
  Dataset data(schema);
  EXPECT_TRUE(data.AppendRow({Value(std::nan(""))}).ok());
}

TEST(DatasetTest, TypedColumnsAndInterning) {
  Dataset data(TestSchema());
  for (const char* disease : {"Flu", "Cold", "Flu"}) {
    ASSERT_TRUE(data.AppendRow({Value("1305"), Value(int64_t{40}),
                                Value(disease), Value("n")})
                    .ok());
  }
  // Each string is held once; codes name it.
  EXPECT_EQ(data.dictionary(2), (std::vector<std::string>{"Flu", "Cold"}));
  EXPECT_EQ(std::vector<uint32_t>(data.codes(2).begin(), data.codes(2).end()),
            (std::vector<uint32_t>{0, 1, 0}));
  EXPECT_EQ(data.ints(1).size(), 3u);
  EXPECT_EQ(data.Numbers(1), (std::vector<double>{40.0, 40.0, 40.0}));
  // set_cell interns a new string and re-uses a known one.
  data.set_cell(1, 2, Value("Flu"));
  EXPECT_EQ(data.dictionary(2).size(), 2u);
  data.set_cell(1, 2, Value("HIV"));
  EXPECT_EQ(data.dictionary(2).size(), 3u);
  EXPECT_EQ(data.cell(1, 2).AsString(), "HIV");
  // Cold is orphaned: the dictionary keeps it, the coded view does not.
  auto view = EncodedView::Build(data, {2});
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->distinct_values(0),
            (std::vector<Value>{Value("Flu"), Value("HIV")}));
  EXPECT_EQ(data.row(2)[2].AsString(), "Flu");
}

TEST(DatasetTest, FromColumnsValidates) {
  auto strings = [](std::vector<uint32_t> codes,
                    std::vector<std::string> dictionary) {
    Dataset::Column column;
    column.codes = std::move(codes);
    column.dictionary = std::move(dictionary);
    return column;
  };
  Dataset::Column ages;
  ages.ints = {28, 41};
  auto good = Dataset::FromColumns(
      TestSchema(), {strings({0, 0}, {"13053"}), ages,
                     strings({1, 0}, {"Flu", "Cold", "*"}),
                     strings({0, 0}, {""})});
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->row_count(), 2u);
  EXPECT_EQ(good->cell(0, 2).AsString(), "Cold");
  EXPECT_EQ(good->ToCsv(), "zip,age,disease,note\n13053,28,Cold,\n"
                           "13053,41,Flu,\n");
  // Appending after a column build re-uses the indexed dictionary.
  ASSERT_TRUE(good->AppendRow({Value("13053"), Value(int64_t{5}),
                               Value("*"), Value("")})
                  .ok());
  EXPECT_EQ(good->dictionary(2).size(), 3u);

  struct Case {
    std::vector<Dataset::Column> columns;
    StatusCode code;
    std::string message;
  };
  Dataset::Column reals;
  reals.reals = {1.0, 2.0};
  Dataset::Column short_ages;
  short_ages.ints = {28};
  const Case cases[] = {
      {{ages}, StatusCode::kInvalidArgument, "column count 1 != schema arity 4"},
      {{strings({0, 0}, {"a"}), reals, strings({0, 0}, {"a"}),
        strings({0, 0}, {"a"})},
       StatusCode::kInvalidArgument,
       "column 'age' holds arrays of another type than int"},
      {{strings({0, 0}, {"a"}), short_ages, strings({0, 0}, {"a"}),
        strings({0, 0}, {"a"})},
       StatusCode::kInvalidArgument, "column 'age' has 1 rows, expected 2"},
      {{strings({0, 2}, {"a", "b"}), ages, strings({0, 0}, {"a"}),
        strings({0, 0}, {"a"})},
       StatusCode::kOutOfRange, "column 'zip' has a code beyond its dictionary"},
      {{strings({0, 0}, {"a", "a"}), ages, strings({0, 0}, {"a"}),
        strings({0, 0}, {"a"})},
       StatusCode::kInvalidArgument, "column 'zip' repeats a dictionary entry"},
  };
  for (const Case& c : cases) {
    auto built = Dataset::FromColumns(TestSchema(), c.columns);
    EXPECT_EQ(built.status().code(), c.code) << built.status().ToString();
    EXPECT_EQ(built.status().message(), c.message);
  }
}

TEST(DatasetTest, FromCsvValidatesHeader) {
  EXPECT_FALSE(Dataset::FromCsv(TestSchema(), "a,b,c,d\n").ok());
  EXPECT_FALSE(Dataset::FromCsv(TestSchema(), "").ok());
}

TEST(DatasetTest, FromCsvValidatesCells) {
  std::string bad = "zip,age,disease,note\nx,notanumber,d,n\n";
  EXPECT_FALSE(Dataset::FromCsv(TestSchema(), bad).ok());
}

TEST(DatasetTest, ToTextContainsHeaderAndRows) {
  Dataset data(TestSchema());
  ASSERT_TRUE(data.AppendRow({Value("13053"), Value(int64_t{28}),
                              Value("Flu"), Value("n")})
                  .ok());
  std::string text = data.ToText();
  EXPECT_NE(text.find("zip"), std::string::npos);
  EXPECT_NE(text.find("13053"), std::string::npos);
}

}  // namespace
}  // namespace mdc
