// Robustness / fuzz-style tests: seeded random and adversarial inputs must
// produce clean Status errors, never crashes or silent corruption.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "anonymize/incognito.h"
#include "anonymize/stochastic.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "common/snapshot.h"
#include "core/property_matrix.h"
#include "coverage_reference.h"
#include "hierarchy/spec_parser.h"
#include "hierarchy/suffix_hierarchy.h"
#include "hierarchy/taxonomy_hierarchy.h"
#include "table/dataset.h"
#include "table/encoded_view.h"

namespace mdc {
namespace {

Schema SimpleSchema() {
  auto schema = Schema::Create({
      {"zip", AttributeType::kString, AttributeRole::kQuasiIdentifier},
      {"age", AttributeType::kInt, AttributeRole::kQuasiIdentifier},
  });
  MDC_CHECK(schema.ok());
  return std::move(schema).value();
}

std::string RandomText(Rng& rng, size_t length) {
  static constexpr char kAlphabet[] =
      "abcxyz0189,\"\n\r |@.-#<>()[]{}*end column edge";
  std::string text;
  text.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    text += kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
  }
  return text;
}

TEST(RobustnessTest, CsvParserNeverCrashesOnGarbage) {
  Rng rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage = RandomText(rng, 1 + rng.NextBelow(200));
    auto parsed = ParseCsv(garbage);  // ok() or clean error; no crash.
    if (parsed.ok()) {
      // Whatever parsed must re-serialize and re-parse to itself.
      auto round = ParseCsv(WriteCsv(*parsed));
      ASSERT_TRUE(round.ok());
      EXPECT_EQ(*round, *parsed);
    }
  }
}

TEST(RobustnessTest, CsvRoundTripOnRandomFields) {
  Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::vector<std::string>> rows;
    size_t row_count = 1 + rng.NextBelow(5);
    size_t column_count = 1 + rng.NextBelow(4);
    for (size_t r = 0; r < row_count; ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < column_count; ++c) {
        row.push_back(RandomText(rng, rng.NextBelow(12)));
      }
      rows.push_back(std::move(row));
    }
    auto parsed = ParseCsv(WriteCsv(rows));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, rows);
  }
}

TEST(RobustnessTest, SpecParserNeverCrashesOnGarbage) {
  Schema schema = SimpleSchema();
  Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage = RandomText(rng, 1 + rng.NextBelow(300));
    auto parsed = ParseHierarchySpec(schema, garbage);
    (void)parsed;  // ok() or error — either is fine; crashing is not.
  }
}

TEST(RobustnessTest, DatasetFromCsvRejectsRaggedRows) {
  Schema schema = SimpleSchema();
  EXPECT_FALSE(Dataset::FromCsv(schema, "zip,age\nx\n").ok());
  EXPECT_FALSE(Dataset::FromCsv(schema, "zip,age\nx,1,extra\n").ok());
  EXPECT_FALSE(Dataset::FromCsv(schema, "zip\nx\n").ok());
}

TEST(RobustnessTest, ValueParseExtremes) {
  EXPECT_FALSE(Value::Parse("9223372036854775808", AttributeType::kInt)
                   .ok());  // INT64_MAX + 1.
  auto min = Value::Parse("-9223372036854775808", AttributeType::kInt);
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->AsInt(), INT64_MIN);
  EXPECT_FALSE(Value::Parse("1e999", AttributeType::kReal).ok());
  auto tiny = Value::Parse("1e-300", AttributeType::kReal);
  EXPECT_TRUE(tiny.ok());
}

TEST(RobustnessTest, TaxonomyBuilderNeverCrashesOnRandomEdges) {
  // Random edge soups: duplicate labels, unknown parents, self-loops,
  // re-rooting attempts. Build() must return ok or a clean error, and any
  // accepted tree must generalize its leaves sanely at every level and
  // cover them as the ancestor walk over its edges does (every Add of an
  // accepted tree succeeded, so its edges are exactly the ones drawn).
  static constexpr const char* kLabels[] = {"*",  "a",  "b",  "c", "d",
                                            "aa", "ab", "ba", "",  "a|b"};
  constexpr size_t kLabelCount = sizeof(kLabels) / sizeof(kLabels[0]);
  Rng rng(5);
  size_t accepted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    TaxonomyHierarchy::Builder builder;
    coverage_reference::Edges drawn;
    size_t edges = rng.NextBelow(12);
    for (size_t e = 0; e < edges; ++e) {
      drawn.emplace_back(kLabels[rng.NextBelow(kLabelCount)],
                         kLabels[rng.NextBelow(kLabelCount)]);
      builder.Add(drawn.back().first, drawn.back().second);
    }
    auto tree = builder.Build();
    if (!tree.ok()) continue;
    ++accepted;
    const coverage_reference::Taxonomy reference(drawn);
    std::vector<Value> values;
    for (const char* label : kLabels) values.emplace_back(label);
    coverage_reference::ExpectCoversMatches(
        *tree, values, [&](const std::string& label, const Value& value) {
          return reference.Covers(label, value);
        });
    EXPECT_GE(tree->height(), 1);
    EXPECT_GE(tree->leaf_count(), 1u);
    for (const std::string& leaf : tree->Leaves()) {
      // Shallow leaves clamp at the root within [0, height]; levels beyond
      // height are a clean OutOfRange, never a crash.
      for (int level = 0; level <= tree->height(); ++level) {
        auto label = tree->Generalize(Value(leaf), level);
        ASSERT_TRUE(label.ok()) << leaf << " @ " << level;
        EXPECT_TRUE(tree->Covers(*label, Value(leaf)));
      }
      EXPECT_FALSE(tree->Generalize(Value(leaf), tree->height() + 1).ok());
    }
  }
  EXPECT_GT(accepted, 0u);
}

TEST(RobustnessTest, SpecParserTaxonomyBlockFuzz) {
  // Structured-ish fuzz for the multi-line taxonomy grammar: random edge
  // lines, sometimes missing 'end', sometimes malformed separators. The
  // parser must return ok or a clean error — never crash or hang.
  Schema schema = SimpleSchema();
  static constexpr const char* kLines[] = {
      "edge a|*",      "edge b|a",      "edge b|b",   "edge |",
      "edge aphone",   "edge x|ghost",  "edge  c | a", "edge *|a",
      "garbage",       "# comment",     "",           "end"};
  constexpr size_t kLineCount = sizeof(kLines) / sizeof(kLines[0]);
  Rng rng(6);
  for (int trial = 0; trial < 300; ++trial) {
    std::string spec = "column zip taxonomy\n";
    size_t line_count = rng.NextBelow(10);
    for (size_t l = 0; l < line_count; ++l) {
      spec += kLines[rng.NextBelow(kLineCount)];
      spec += '\n';
    }
    if (rng.NextBool(0.5)) spec += "end\n";
    auto parsed = ParseHierarchySpec(schema, spec);
    (void)parsed;  // ok() or error — either is fine; crashing is not.
  }
}

TEST(RobustnessTest, SuffixHierarchyFuzz) {
  EXPECT_FALSE(SuffixHierarchy::Create(0).ok());
  EXPECT_FALSE(SuffixHierarchy::Create(-3).ok());
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    int code_length = 1 + static_cast<int>(rng.NextBelow(8));
    auto hierarchy = SuffixHierarchy::Create(code_length);
    ASSERT_TRUE(hierarchy.ok());
    Value value = rng.NextBool(0.5)
                      ? Value(RandomText(rng, rng.NextBelow(10)))
                      : Value(rng.NextInt(-1000, 10'000'000));
    int level = static_cast<int>(rng.NextBelow(code_length + 3));
    auto label = hierarchy->Generalize(value, level);
    if (!label.ok()) continue;  // Value does not fit the code: clean error.
    EXPECT_FALSE(label->empty());
    EXPECT_TRUE(hierarchy->Covers(*label, value))
        << *label << " should cover " << value.ToString();
  }
}

TEST(RobustnessTest, ValueIntAndStringRoundTrip) {
  Rng rng(8);
  for (int trial = 0; trial < 500; ++trial) {
    int64_t raw = static_cast<int64_t>(rng.NextUint64());
    auto parsed = Value::Parse(std::to_string(raw), AttributeType::kInt);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->AsInt(), raw);
    // parse -> format -> parse is the identity for ints.
    auto again = Value::Parse(parsed->ToString(), AttributeType::kInt);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->AsInt(), raw);

    std::string text = RandomText(rng, rng.NextBelow(16));
    auto str = Value::Parse(text, AttributeType::kString);
    ASSERT_TRUE(str.ok());
    EXPECT_EQ(str->ToString(), text);
  }
}

TEST(RobustnessTest, ValueRealFormatIsAFixedPoint) {
  // Real formatting is compact (lossy), so one parse -> format hop may
  // round; after that, format -> parse -> format must be a fixed point or
  // CSV round-trips would drift on every pass.
  Rng rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    double magnitude = std::pow(10.0, rng.NextInt(-6, 6));
    double raw = (rng.NextDouble() * 2.0 - 1.0) * magnitude;
    auto parsed = Value::Parse(std::to_string(raw), AttributeType::kReal);
    ASSERT_TRUE(parsed.ok());
    std::string first = parsed->ToString();
    auto reparsed = Value::Parse(first, AttributeType::kReal);
    ASSERT_TRUE(reparsed.ok()) << first;
    EXPECT_EQ(reparsed->ToString(), first) << "drift from " << raw;
  }
}

TEST(RobustnessTest, SnapshotReaderNeverCrashesOnMutatedSnapshots) {
  // Start from a valid framed snapshot, then hammer it: random byte
  // flips, truncations, extensions, and splices. Open + reads must always
  // return a clean Status — never crash, hang, or allocate anywhere near
  // the forged lengths (the test itself would OOM if they did).
  SnapshotWriter writer(SnapshotKind::kStochastic, 1);
  writer.WriteU64(3);
  writer.WriteString("payload");
  writer.WriteU64Vec({5, 6, 7});
  writer.WriteDouble(1.5);
  writer.WriteBool(true);
  const std::string valid = writer.Finish();

  Rng rng(10);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = valid;
    size_t edits = 1 + rng.NextBelow(4);
    for (size_t e = 0; e < edits; ++e) {
      switch (rng.NextBelow(4)) {
        case 0:  // Flip a random byte.
          mutated[rng.NextBelow(mutated.size())] ^=
              static_cast<char>(1 + rng.NextBelow(255));
          break;
        case 1:  // Truncate.
          mutated.resize(rng.NextBelow(mutated.size() + 1));
          break;
        case 2:  // Append garbage.
          mutated += static_cast<char>(rng.NextBelow(256));
          break;
        default:  // Splice a chunk of the valid bytes onto the end.
          mutated += valid.substr(rng.NextBelow(valid.size()));
          break;
      }
      if (mutated.empty()) break;
    }
    if (mutated == valid) continue;

    auto reader = SnapshotReader::Open(mutated, SnapshotKind::kStochastic, 1);
    if (!reader.ok()) continue;  // Clean rejection: the common case.
    // The frame survived (e.g. only trailing-garbage edits cancelled out);
    // every typed read must still be total.
    (void)reader->ReadU64();
    (void)reader->ReadString();
    (void)reader->ReadU64Vec();
    (void)reader->ReadDouble();
    (void)reader->ReadBool();
    (void)reader->ExpectEnd();
  }
}

TEST(RobustnessTest, CheckpointResumeNeverCrashesOnMutatedSnapshots) {
  // Same storm aimed at the real checkpoint deserializers, whose payloads
  // nest counted maps and vectors: ResumeFrom must reject every mutation
  // cleanly and leave the checkpoint object unchanged.
  StochasticCheckpoint source;
  source.next_restart = 2;
  source.rng_state = {1, 2, 3, 4, 5, 6};
  source.best_node = {1, 0, 2};
  source.best_loss = 0.25;
  source.have_best = true;
  source.captured = true;
  auto saved = source.SaveCheckpoint();
  ASSERT_TRUE(saved.ok());

  Rng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = *saved;
    if (rng.NextBool(0.5)) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<char>(1 + rng.NextBelow(255));
    } else {
      mutated.resize(rng.NextBelow(mutated.size() + 1));
    }
    if (mutated == *saved) continue;
    StochasticCheckpoint target;
    Status status = target.ResumeFrom(mutated);
    EXPECT_FALSE(status.ok());
    EXPECT_FALSE(target.has_state());
    IncognitoCheckpoint wrong_kind;
    EXPECT_FALSE(wrong_kind.ResumeFrom(mutated).ok());
  }
}

TEST(RobustnessTest, PropertyMatrixFromCsvNeverCrashesOnGarbage) {
  // Comparison-engine ingestion: arbitrary bytes must produce ok() or a
  // clean InvalidArgument — never crash — and anything accepted must
  // round-trip through ToCsv()/FromCsv() exactly (the matrix is the
  // kernels' source of truth, so drift here would poison every index).
  Rng rng(12);
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage = RandomText(rng, 1 + rng.NextBelow(200));
    auto matrix = PropertyMatrix::FromCsv(garbage);
    if (!matrix.ok()) continue;
    auto round = PropertyMatrix::FromCsv(matrix->ToCsv());
    ASSERT_TRUE(round.ok());
    ASSERT_EQ(round->rows(), matrix->rows());
    ASSERT_EQ(round->cols(), matrix->cols());
    for (size_t r = 0; r < matrix->rows(); ++r) {
      for (size_t c = 0; c < matrix->cols(); ++c) {
        EXPECT_EQ(round->at(r, c), matrix->at(r, c));
      }
    }
  }
}

TEST(RobustnessTest, PropertyMatrixFromCsvRejectsMalformedInputs) {
  // NaN / inf cells: finite-values-only contract (NaN would break the
  // packed==scalar differential equality and every index).
  EXPECT_FALSE(PropertyMatrix::FromCsv("p0,1,nan\n").ok());
  EXPECT_FALSE(PropertyMatrix::FromCsv("p0,inf,2\n").ok());
  EXPECT_FALSE(PropertyMatrix::FromCsv("p0,-inf,2\n").ok());
  EXPECT_FALSE(PropertyMatrix::FromCsv("p0,1e999,2\n").ok());
  // Mismatched N between rows (ragged matrix).
  EXPECT_FALSE(PropertyMatrix::FromCsv("p0,1,2\np1,3\n").ok());
  EXPECT_FALSE(PropertyMatrix::FromCsv("p0,1\np1,2,3\n").ok());
  // Structurally malformed rows.
  EXPECT_FALSE(PropertyMatrix::FromCsv("").ok());
  EXPECT_FALSE(PropertyMatrix::FromCsv("\n\n").ok());
  EXPECT_FALSE(PropertyMatrix::FromCsv("justaname\n").ok());
  EXPECT_FALSE(PropertyMatrix::FromCsv(",1,2\n").ok());
  EXPECT_FALSE(PropertyMatrix::FromCsv("p0,1,notanumber\n").ok());
  // And the shapes that are fine must stay fine.
  EXPECT_TRUE(PropertyMatrix::FromCsv("p0,1,2\np1,3,4\n").ok());
  EXPECT_TRUE(PropertyMatrix::FromCsv("p0,-1.5,0,2e-3\n").ok());
}

TEST(RobustnessTest, PropertyMatrixFromCsvHonorsBudgetsAndCancellation) {
  std::string csv;
  for (int r = 0; r < 16; ++r) {
    csv.append("p").append(std::to_string(r)).append(",1,2,3\n");
  }
  // One budget step per row.
  RunContext steps;
  steps.set_max_steps(4);
  EXPECT_EQ(PropertyMatrix::FromCsv(csv, &steps).status().code(),
            StatusCode::kResourceExhausted);
  RunContext enough;
  enough.set_max_steps(64);
  EXPECT_TRUE(PropertyMatrix::FromCsv(csv, &enough).ok());
  CancellationToken token;
  token.Cancel();
  RunContext cancelled;
  cancelled.set_cancellation(token);
  EXPECT_EQ(PropertyMatrix::FromCsv(csv, &cancelled).status().code(),
            StatusCode::kCancelled);
}

TEST(RobustnessTest, EmptyDatasetOperations) {
  Dataset empty(SimpleSchema());
  EXPECT_EQ(empty.row_count(), 0u);
  auto view = EncodedView::Build(empty, {0});
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->distinct_values(0).empty());
  EXPECT_FALSE(empty.NumericRange(1).ok());
  EXPECT_NE(empty.ToCsv().find("zip,age"), std::string::npos);
}

}  // namespace
}  // namespace mdc
