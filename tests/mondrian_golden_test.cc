// Golden oracle for Mondrian (anonymize/mondrian.h).
//
// Each case pins one Mondrian run to figures captured from the earlier
// implementation, which sorted Values at every recursion level and
// regrouped its release by label strings: the class count, the partition
// count, the recursion depth, the budget steps, and FNV-1a digests of the
// release CSV and of the class member lists. The inputs are a committed
// 2,000-row census CSV (tests/data/census_2000.csv, GenerateCensus rows=2000
// seed=42) and an inline fixture, never a fresh GenerateCensus draw, so the
// digests do not depend on the platform's libm.
//
// The cases cover k in {2, 5, 10, 50} with age read once as int and once
// as real, a run truncated by a 50-step budget, and a real QI whose values
// differ below FormatCompact's 6 decimals: two finished partitions then
// print the same label tuple and must form a single class.
//
// To refresh after an intentional change, print the actual figures from a
// failing run and review the diff like any code change.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "anonymize/mondrian.h"
#include "common/csv.h"
#include "common/run_context.h"
#include "table/schema.h"

namespace mdc {
namespace {

uint64_t Fnv1a(std::string_view text) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// "r,r,...;" per class, in class order.
std::string MemberLists(const EquivalencePartition& partition) {
  std::string out;
  for (ClassSpan members : partition.classes()) {
    for (size_t row : members) out += std::to_string(row) + ",";
    out += ";";
  }
  return out;
}

std::string CensusSchema(const std::string& age_type) {
  return std::string("age:") + age_type +
         ":qi,zip:string:qi,education:string:qi,marital:string:qi,"
         "occupation:string:qi,disease:string:sensitive";
}

// Reals 1, 1.0000001, ... all print as "1" (and 2.5, 2.5000001, ... as
// "2.5"), so partitions Mondrian keeps apart can share a label tuple.
constexpr const char* kMergeSchema = "x:real:qi,g:string:qi,s:string:sensitive";
constexpr const char* kMergeCsv =
    "x,g,s\n"
    "1,a,flu\n"
    "1.0000001,a,cold\n"
    "1.0000002,b,flu\n"
    "1.0000003,a,hiv\n"
    "1,b,cold\n"
    "1.0000001,b,flu\n"
    "1.0000002,a,cold\n"
    "1.0000003,b,flu\n"
    "2.5,a,cold\n"
    "2.5000001,a,flu\n"
    "2.5000002,b,hiv\n"
    "2.5,b,flu\n"
    "2.5000001,b,cold\n"
    "2.5000002,a,flu\n"
    "7,a,hiv\n"
    "7,b,cold\n"
    "7.25,a,flu\n"
    "7.25,b,flu\n"
    "9,a,cold\n"
    "9,a,hiv\n"
    "9,b,flu\n"
    "1.0000002,a,flu\n"
    "2.5000001,a,hiv\n"
    "7,a,cold\n"
    "5,c,flu\n"
    "5.0000001,c,cold\n"
    "5.0000002,c,flu\n"
    "5.0000003,c,hiv\n"
    "5,c,cold\n"
    "5.0000001,c,flu\n"
    "5.0000002,c,hiv\n"
    "5.0000003,c,flu\n";

// Value order and equality treat 0 and -0 as one value, but FormatCompact
// prints "-0": a label shows the sign of the first zero in the order the
// partition's rows were cut in.
constexpr const char* kZeroSchema = "x:real:qi,g:string:qi,s:string:sensitive";
constexpr const char* kZeroCsv =
    "x,g,s\n"
    "-0,a,flu\n"
    "0,b,cold\n"
    "1,a,flu\n"
    "-0,b,hiv\n"
    "0,a,cold\n"
    "2,b,flu\n"
    "0,a,flu\n"
    "-0,a,cold\n"
    "3,b,hiv\n"
    "0,b,flu\n"
    "-1,a,cold\n"
    "-0,b,flu\n"
    "0,c,flu\n"
    "-0,c,hiv\n";

struct GoldenCase {
  const char* name;
  const char* schema;  // Census age type ("int"/"real"), "merge" or "zero".
  int k;
  uint64_t max_steps;  // 0 = unbudgeted.
  size_t classes;
  size_t partitions;
  int max_depth;
  uint64_t steps;
  bool truncated;
  uint64_t release_digest;
  uint64_t member_digest;
};

constexpr GoldenCase kCases[] = {
    // clang-format off
    {"census_int_k2", "int", 2, 0, 850, 850, 12, 1699, false, 0xb1525140c5c8ccbeull, 0xe6ce08d954343c9full},
    {"census_int_k5", "int", 5, 0, 312, 312, 10, 623, false, 0xe612f8fef6d26573ull, 0xb9df696274197735ull},
    {"census_int_k10", "int", 10, 0, 153, 153, 9, 305, false, 0x2105e7c1ef9a5700ull, 0xb94bd1a588c974a0ull},
    {"census_int_k50", "int", 50, 0, 32, 32, 5, 63, false, 0xa854e2d4a2a7e073ull, 0xcf2cc7c32f075855ull},
    {"census_real_k2", "real", 2, 0, 850, 850, 12, 1699, false, 0xb1525140c5c8ccbeull, 0xe6ce08d954343c9full},
    {"census_real_k5", "real", 5, 0, 312, 312, 10, 623, false, 0xe612f8fef6d26573ull, 0xb9df696274197735ull},
    {"census_real_k10", "real", 10, 0, 153, 153, 9, 305, false, 0x2105e7c1ef9a5700ull, 0xb94bd1a588c974a0ull},
    {"census_real_k50", "real", 50, 0, 32, 32, 5, 63, false, 0xa854e2d4a2a7e073ull, 0xcf2cc7c32f075855ull},
    {"census_int_k5_steps50", "int", 5, 50, 28, 28, 9, 51, true, 0x43f15c2d4795f720ull, 0x993edc950b4ed2abull},
    {"merge_k1", "merge", 1, 0, 11, 24, 5, 47, false, 0x5b8ba4f59bc7663dull, 0xb980c752a000f492ull},
    {"merge_k2", "merge", 2, 0, 11, 14, 4, 27, false, 0xc6282016a93ef5e6ull, 0x6892391e66d634d0ull},
    {"zero_k1", "zero", 1, 0, 7, 7, 3, 13, false, 0xe817acea8050c653ull, 0x37dfaa04477c02bfull},
    {"zero_k2", "zero", 2, 0, 4, 4, 3, 7, false, 0x29656af69bf9d9faull, 0x63871cb0c0c897fcull},
    {"zero_k3", "zero", 3, 0, 3, 3, 2, 5, false, 0x580a0adfa529579aull, 0x69a11126281021d5ull},
    // clang-format on
};

void PrintTo(const GoldenCase& golden, std::ostream* os) { *os << golden.name; }

// `input` is a GoldenCase::schema.
StatusOr<std::shared_ptr<const Dataset>> LoadInput(std::string_view input) {
  std::string schema_spec;
  std::string csv;
  if (input == "merge") {
    schema_spec = kMergeSchema;
    csv = kMergeCsv;
  } else if (input == "zero") {
    schema_spec = kZeroSchema;
    csv = kZeroCsv;
  } else {
    schema_spec = CensusSchema(std::string(input));
    MDC_ASSIGN_OR_RETURN(
        csv, ReadFileToString(std::string(MDC_TEST_DATA_DIR) +
                              "/census_2000.csv"));
  }
  MDC_ASSIGN_OR_RETURN(Schema schema, ParseSchemaSpec(schema_spec));
  MDC_ASSIGN_OR_RETURN(Dataset data, Dataset::FromCsv(schema, csv));
  return std::make_shared<const Dataset>(std::move(data));
}

class MondrianGoldenTest : public testing::TestWithParam<GoldenCase> {};

TEST_P(MondrianGoldenTest, MatchesCapturedRun) {
  const GoldenCase& golden = GetParam();
  auto data = LoadInput(golden.schema);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  RunContext run;
  if (golden.max_steps > 0) run.set_max_steps(golden.max_steps);
  auto result = MondrianAnonymize(*data, MondrianConfig{golden.k}, &run);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const EquivalencePartition& partition = result->partition;

  // Invariants that hold whatever the figures.
  EXPECT_GE(result->partition_count, partition.class_count());
  std::vector<int> seen((*data)->row_count(), 0);
  for (ClassSpan members : partition.classes()) {
    for (size_t row : members) ++seen[row];
  }
  for (size_t row = 0; row < seen.size(); ++row) {
    EXPECT_EQ(seen[row], 1) << "row " << row;
  }
  EXPECT_EQ(partition.row_count(), (*data)->row_count());
  EXPECT_GE(partition.MinClassSize(), static_cast<size_t>(golden.k));

  const std::string release = result->anonymization.release.ToCsv();
  const std::string members = MemberLists(partition);
  EXPECT_EQ(partition.class_count(), golden.classes);
  EXPECT_EQ(result->partition_count, golden.partitions);
  EXPECT_EQ(result->max_depth, golden.max_depth);
  EXPECT_EQ(result->run_stats.steps, golden.steps);
  EXPECT_EQ(result->run_stats.truncated, golden.truncated);
  EXPECT_EQ(Fnv1a(release), golden.release_digest);
  EXPECT_EQ(Fnv1a(members), golden.member_digest);
  if (HasFailure()) {
    std::printf("actual: {\"%s\", \"%s\", %d, %llu, %zu, %zu, %d, %llu, %s, "
                "0x%016llxull, 0x%016llxull},\n",
                golden.name, golden.schema, golden.k,
                static_cast<unsigned long long>(golden.max_steps),
                partition.class_count(), result->partition_count,
                result->max_depth,
                static_cast<unsigned long long>(result->run_stats.steps),
                result->run_stats.truncated ? "true" : "false",
                static_cast<unsigned long long>(Fnv1a(release)),
                static_cast<unsigned long long>(Fnv1a(members)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MondrianGoldenTest, testing::ValuesIn(kCases),
    [](const testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mdc
