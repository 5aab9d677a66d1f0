// In-process coverage of the one job executor (service/executor.h): every
// kind on the paper's Table 1, the registry's unknown-name errors, the
// param parser's rejections, checkpoint resume through the optional entry
// hooks, and the resident-cache path (dataset cache + derived-model
// store) against a cold run. The process-level byte-identity proof (CLI
// and serve against committed goldens) lives in cli_golden_test.cc.

#include "service/executor.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <string>

#include "common/durable_io.h"
#include "common/metrics.h"
#include "common/run_context.h"
#include "service/dataset_cache.h"

namespace mdc::service {
namespace {

using Params = std::map<std::string, std::string>;

JobSpec Spec(const std::string& kind, Params params,
             const std::string& id = "") {
  JobSpec spec;
  spec.id = id;
  spec.kind = kind;
  spec.params = std::move(params);
  return spec;
}

ServiceCore::ExecResult Exec(const JobSpec& spec, RunContext* run = nullptr,
                            std::string_view resume = {},
                            DatasetCache* cache = nullptr,
                            std::string* summary = nullptr) {
  return ExecuteJob({spec, run, resume, cache}, 1, summary);
}

// A small all-numeric file so perturbation has several columns to sweep
// (Table 1 has one numeric quasi-identifier).
std::string NumericInput() {
  static const std::string path = [] {
    std::string file =
        "/tmp/mdc_executor_test_" + std::to_string(::getpid()) + ".csv";
    std::string csv = "a,b,c\n";
    for (int r = 0; r < 40; ++r) {
      csv += std::to_string((r * 37) % 101) + "," +
             std::to_string((r * 53) % 89) + "," + std::to_string(r % 7) +
             "\n";
    }
    EXPECT_TRUE(DurableWriteFile(file, csv).ok());
    return file;
  }();
  return path;
}

constexpr const char* kNumericSchema = "a:int:qi,b:int:qi,c:int:qi";

TEST(ExecutorTest, AnonymizeRunsEveryGeneralizationEntry) {
  for (const char* algorithm :
       {"datafly", "samarati", "optimal", "mondrian", "cluster"}) {
    SCOPED_TRACE(algorithm);
    std::string summary;
    auto result = Exec(Spec("anonymize", {{"algorithm", algorithm},
                                         {"k", "3"}}),
                      nullptr, {}, nullptr, &summary);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    // Header + Table 1's ten rows.
    EXPECT_EQ(std::count(result.artifact.begin(), result.artifact.end(), '\n'),
              11);
    EXPECT_EQ(summary.rfind(std::string(algorithm) + ": 10 rows, achieved k=",
                            0),
              0u)
        << summary;
    EXPECT_FALSE(result.truncated);
    EXPECT_TRUE(result.checkpoint.empty());
  }
}

TEST(ExecutorTest, PerturbAndReportCoverBothFamilies) {
  std::string summary;
  auto perturbed = Exec(Spec("perturb", {{"mechanism", "rankswap"},
                                        {"seed", "7"}}),
                       nullptr, {}, nullptr, &summary);
  ASSERT_TRUE(perturbed.status.ok()) << perturbed.status.ToString();
  EXPECT_EQ(summary.rfind("rankswap: 10 rows, 1 columns perturbed\n"
                          "permutation model:",
                          0),
            0u)
      << summary;

  auto generalized = Exec(Spec("report", {{"algorithm", "datafly"},
                                         {"k", "3"}}));
  ASSERT_TRUE(generalized.status.ok());
  EXPECT_NE(generalized.artifact.find("achieved_k="), std::string::npos);

  auto microagg = Exec(Spec("report", {{"algorithm", "microagg"},
                                      {"k", "3"}}));
  ASSERT_TRUE(microagg.status.ok());
  EXPECT_NE(microagg.artifact.find("permutation model:"), std::string::npos);
}

TEST(ExecutorTest, CompareRoutesTwoGeneralizationsAndCrossFamily) {
  auto two_way = Exec(Spec("compare", {{"k", "3"}}));  // datafly,mondrian
  ASSERT_TRUE(two_way.status.ok()) << two_way.status.ToString();
  EXPECT_NE(two_way.artifact.find("comparison: datafly vs mondrian"),
            std::string::npos);

  auto cross = Exec(Spec("compare", {{"algorithms", "mondrian,noise,rankswap"},
                                    {"k", "3"}}));
  ASSERT_TRUE(cross.status.ok()) << cross.status.ToString();
  EXPECT_EQ(cross.artifact.rfind("permutation comparison (3 releases, N=10)",
                                 0),
            0u);
  EXPECT_NE(cross.artifact.find("dominance wins: rankswap="),
            std::string::npos);
}

TEST(ExecutorTest, UnknownNamesAndKindsKeepTheirErrors) {
  const std::string known =
      "' (datafly|samarati|optimal|mondrian|cluster)";
  struct Case {
    JobSpec spec;
    std::string message;
  };
  const Case cases[] = {
      {Spec("anonymize", {{"algorithm", "bogus"}}),
       "unknown algorithm 'bogus" + known},
      // Perturbative names are not anonymize algorithms.
      {Spec("anonymize", {{"algorithm", "noise"}}),
       "unknown algorithm 'noise" + known},
      {Spec("compare", {{"algorithms", "datafly,bogus"}}),
       "unknown algorithm 'bogus" + known},
      {Spec("compare", {{"algorithms", "bogus,noise"}}),
       "unknown algorithm 'bogus" + known},
      {Spec("report", {{"algorithm", "bogus"}}),
       "unknown algorithm 'bogus" + known},
      {Spec("perturb", {{"mechanism", "bogus"}}),
       "unknown perturbation mechanism 'bogus' (noise|rankswap|microagg)"},
      {Spec("destroy", {}, "j1"),
       "job j1: unknown kind 'destroy' (anonymize|perturb|compare|report)"},
      {Spec("anonymize", {{"dataset", "census"}}, "j2"),
       "job j2: unknown dataset 'census' (table1 or input+schema)"},
      {Spec("compare", {{"algorithms", "datafly"}}, "j3"),
       "job j3: algorithms needs two comma-separated names"},
      {Spec("compare", {{"algorithms", "noise"}}),
       "permutation comparison needs at least two algorithm names"},
      {Spec("compare", {{"sensitive", "-1"}}, "j4"),
       "job j4: sensitive must be a column index"},
  };
  for (const Case& c : cases) {
    auto result = Exec(c.spec);
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(result.status.message(), c.message);
  }
}

// A small file whose quasi-identifiers are all strings.
std::string StringQiInput() {
  static const std::string path = [] {
    std::string file =
        "/tmp/mdc_executor_test_strings_" + std::to_string(::getpid()) +
        ".csv";
    std::string csv = "zip,marital,diagnosis\n";
    for (int r = 0; r < 40; ++r) {
      csv += "130" + std::to_string(r % 9) + "," +
             (r % 3 == 0 ? "Married" : "Single") + ",d" +
             std::to_string(r % 4) + "\n";
    }
    EXPECT_TRUE(DurableWriteFile(file, csv).ok());
    return file;
  }();
  return path;
}

constexpr const char* kStringSchema =
    "zip:string:qi,marital:string:qi,diagnosis:string:sensitive";

TEST(ExecutorTest, PreflightFailsBeforeTheInputIsRead) {
  const std::string perturbation_message =
      "perturbation needs at least one numeric quasi-identifier column";
  const std::string model_message =
      "permutation model needs at least one numeric quasi-identifier column";
  const std::string hierarchy_message =
      "quasi-identifier 'a' has no bound hierarchy";
  struct Case {
    std::string kind;
    Params params;
    std::string input;  // The real file the job's schema describes.
    StatusCode code;
    std::string message;
  };
  const Case cases[] = {
      {"compare",
       {{"algorithms", "mondrian,datafly"}, {"schema", kNumericSchema}},
       NumericInput(), StatusCode::kFailedPrecondition, hierarchy_message},
      {"anonymize",
       {{"algorithm", "samarati"}, {"schema", kNumericSchema}},
       NumericInput(), StatusCode::kFailedPrecondition, hierarchy_message},
      {"anonymize",
       {{"algorithm", "optimal"}, {"schema", kNumericSchema}},
       NumericInput(), StatusCode::kFailedPrecondition, hierarchy_message},
      {"compare",
       {{"algorithms", "mondrian,noise,rankswap"}, {"schema", kStringSchema}},
       StringQiInput(), StatusCode::kInvalidArgument, model_message},
      {"compare",
       {{"algorithms", "noise,mondrian"}, {"schema", kStringSchema}},
       StringQiInput(), StatusCode::kInvalidArgument, perturbation_message},
      {"perturb",
       {{"mechanism", "noise"}, {"schema", kStringSchema}},
       StringQiInput(), StatusCode::kInvalidArgument, perturbation_message},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.kind + " " + c.params.begin()->second);
    for (const std::string& input :
         {std::string("/nonexistent/mdc_preflight.csv"), c.input}) {
      Params params = c.params;
      params["input"] = input;
      params["k"] = "3";
      auto result = Exec(Spec(c.kind, params));
      EXPECT_EQ(result.status.code(), c.code) << result.status.ToString();
      EXPECT_EQ(result.status.message(), c.message);
    }
  }
  // With hierarchies named, a full-domain job reads its input as before.
  auto missing = Exec(Spec("anonymize", {{"algorithm", "datafly"},
                                        {"input", "/nonexistent/x.csv"},
                                        {"schema", kNumericSchema},
                                        {"hierarchies", "/nonexistent/h"}}));
  EXPECT_EQ(missing.status.code(), StatusCode::kNotFound)
      << missing.status.ToString();
}

// File-backed inputs load through one sequence whether the dataset cache
// is on or off, so each failing step returns the same Status both ways.
TEST(ExecutorTest, LoadErrorsMatchWithAndWithoutTheCache) {
  const std::string bad_csv = NumericInput() + ".ragged.csv";
  ASSERT_TRUE(DurableWriteFile(bad_csv, "a,b,c\n1,2,3\n4,5\n").ok());
  const std::string bad_spec = NumericInput() + ".bad.spec";
  ASSERT_TRUE(DurableWriteFile(bad_spec, "column a nonsense\n").ok());
  struct Case {
    std::string name;
    Params params;
    StatusCode code;
  };
  const Case cases[] = {
      {"bad schema spec",
       {{"input", NumericInput()}, {"schema", "a:int:qi,b:bogus"}},
       StatusCode::kInvalidArgument},
      {"missing input",
       {{"input", "/nonexistent/mdc_load.csv"}, {"schema", kNumericSchema}},
       StatusCode::kNotFound},
      {"malformed csv",
       {{"input", bad_csv}, {"schema", kNumericSchema}},
       StatusCode::kInvalidArgument},
      {"missing hierarchy file",
       {{"input", NumericInput()},
        {"schema", kNumericSchema},
        {"hierarchies", "/nonexistent/mdc_load.spec"}},
       StatusCode::kNotFound},
      {"malformed hierarchy spec",
       {{"input", NumericInput()},
        {"schema", kNumericSchema},
        {"hierarchies", bad_spec}},
       StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Params params = c.params;
    params["algorithm"] = "mondrian";
    DatasetCache cache(DatasetCacheConfig{});
    auto uncached = Exec(Spec("anonymize", params, "load"));
    auto cached = Exec(Spec("anonymize", params, "load"), nullptr, {}, &cache);
    EXPECT_EQ(uncached.status.code(), c.code) << uncached.status.ToString();
    EXPECT_EQ(cached.status.ToString(), uncached.status.ToString());
    EXPECT_EQ(cache.GetStats().entries, 0u);
  }
}

TEST(ExecutorTest, RejectsNumbersOutsideTheirRange) {
  // k must fit in int rather than truncate (4294967299 would run as k=3);
  // max_suppression must be a fraction in [0, 1] (a negative or NaN value
  // would reach a size_t cast, which is undefined behaviour).
  for (const char* k : {"4294967299", "-2147483649", "three"}) {
    auto result = Exec(Spec("anonymize", {{"k", k}}, "j"));
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument) << k;
    EXPECT_EQ(result.status.message(), "job j: bad k '" + std::string(k) +
                                           "'");
  }
  for (const char* fraction : {"-1", "nan", "inf", "1.5", "x"}) {
    auto result = Exec(Spec("anonymize", {{"algorithm", "datafly"},
                                         {"max_suppression", fraction}}));
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
        << fraction;
    EXPECT_EQ(result.status.message(),
              "bad max_suppression '" + std::string(fraction) +
                  "' (a fraction in [0, 1])");
  }
  auto edge = Exec(Spec("anonymize", {{"algorithm", "datafly"},
                                     {"max_suppression", "1"}}));
  EXPECT_TRUE(edge.status.ok()) << edge.status.ToString();
}

TEST(ExecutorTest, SummaryCarriesRunStatsUnderABudget) {
  RunContext run;
  run.set_max_steps(1000000);
  std::string summary;
  auto result = Exec(Spec("compare", {{"k", "3"}}), &run, {}, nullptr,
                    &summary);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(summary.rfind("run stats: steps=", 0), 0u) << summary;
}

TEST(ExecutorTest, OptimalResumesFromItsCheckpointHook) {
  const JobSpec spec = Spec("anonymize", {{"algorithm", "optimal"},
                                          {"k", "3"}});
  auto whole = Exec(spec);
  ASSERT_TRUE(whole.status.ok());

  RunContext budget;
  budget.set_max_steps(3);
  auto cut = Exec(spec, &budget);
  ASSERT_FALSE(cut.checkpoint.empty()) << cut.status.ToString();
  auto resumed = Exec(spec, nullptr, cut.checkpoint);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.artifact, whole.artifact);

  // Report jobs never checkpoint, even for a resumable entry.
  RunContext report_budget;
  report_budget.set_max_steps(3);
  auto report = Exec(Spec("report", {{"algorithm", "optimal"}, {"k", "3"}}),
                    &report_budget);
  EXPECT_TRUE(report.checkpoint.empty());

  auto corrupt = Exec(spec, nullptr, "not a checkpoint");
  EXPECT_FALSE(corrupt.status.ok());
}

TEST(ExecutorTest, PerturbResumesMidSweep) {
  const JobSpec spec =
      Spec("perturb", {{"mechanism", "microagg"}, {"k", "3"},
                       {"input", NumericInput()}, {"schema", kNumericSchema}});
  auto whole = Exec(spec);
  ASSERT_TRUE(whole.status.ok()) << whole.status.ToString();

  // One column's worth of steps: the sweep stops after the first column.
  RunContext budget;
  budget.set_max_steps(41);
  auto cut = Exec(spec, &budget);
  EXPECT_TRUE(cut.status.IsBudgetError()) << cut.status.ToString();
  ASSERT_FALSE(cut.checkpoint.empty());
  auto resumed = Exec(spec, nullptr, cut.checkpoint);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.artifact, whole.artifact);
}

TEST(ExecutorTest, CachedRunsMatchColdRunsAndHitTheModelStore) {
  const Params params = {{"algorithms", "noise,rankswap,microagg"},
                         {"k", "3"},
                         {"seed", "7"},
                         {"input", NumericInput()},
                         {"schema", kNumericSchema}};
  auto cold = Exec(Spec("compare", params));
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();

  DatasetCache cache(DatasetCacheConfig{});
  auto model_hits = [] {
    return metrics::Snapshot().counters["svc.cache.model_hits"];
  };
  const uint64_t hits_before = model_hits();
  auto first = Exec(Spec("compare", params), nullptr, {}, &cache);
  auto second = Exec(Spec("compare", params), nullptr, {}, &cache);
  ASSERT_TRUE(first.status.ok() && second.status.ok());
  EXPECT_EQ(first.artifact, cold.artifact);
  EXPECT_EQ(second.artifact, cold.artifact);
  EXPECT_EQ(model_hits() - hits_before, 3u);  // The repeat skipped all three.
  EXPECT_GE(cache.GetStats().hits, 1u);

  // A budgeted run or cache=off bypasses the model store.
  RunContext budget;
  budget.set_max_steps(1u << 30);
  auto budgeted = Exec(Spec("compare", params), &budget, {}, &cache);
  Params off = params;
  off["cache"] = "off";
  auto uncached = Exec(Spec("compare", off), nullptr, {}, &cache);
  EXPECT_EQ(budgeted.artifact, cold.artifact);
  EXPECT_EQ(uncached.artifact, cold.artifact);
  EXPECT_EQ(model_hits() - hits_before, 3u);

  // Lattice searches take the entry's shared encoded bundle; the release
  // is the one a fresh build gives.
  const std::string hierarchies = NumericInput() + ".spec";
  ASSERT_TRUE(
      DurableWriteFile(hierarchies, "column a intervals 10@0 40@0\n").ok());
  const Params lattice = {
      {"algorithm", "optimal"},
      {"k", "2"},
      {"input", NumericInput()},
      {"schema", "a:int:qi,b:int:insensitive,c:int:insensitive"},
      {"hierarchies", hierarchies}};
  auto fresh = Exec(Spec("anonymize", lattice));
  auto shared = Exec(Spec("anonymize", lattice), nullptr, {}, &cache);
  ASSERT_TRUE(fresh.status.ok()) << fresh.status.ToString();
  EXPECT_EQ(shared.artifact, fresh.artifact);
}

}  // namespace
}  // namespace mdc::service
