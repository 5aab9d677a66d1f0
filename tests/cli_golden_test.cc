// Byte-identity contract of the CLI job commands and of `mdc_cli serve`:
// both front ends run the one library executor (service/executor.h), so
// a job's bytes must not depend on which one ran it.
//
//   - `mdc_cli anonymize` (all five algorithms), `perturb` (rankswap,
//     microagg), `compare datafly,mondrian`, `compare
//     mondrian,rankswap,microagg` on examples/data/patients.csv, and the
//     no-argument demo: stdout byte-compared to tests/golden/<name>.txt,
//     stderr to <name>.stderr.txt (empty when that file is absent).
//   - The same jobs submitted to `mdc_cli serve` over stdin: each artifact
//     must equal the golden. Noise draws go through libm log/cos, so the
//     noise job is checked as CLI == serve only, never against a file.
//   - The anonymize jobs as rows of an `mdc_cli batch` jobs file: each
//     release must equal the golden.
//   - Bad numeric params are typed rejections on both front ends, and a
//     batch id that would escape the state dir is rejected up front.
//
// To refresh after an intentional change, rerun a golden's command with
// stdout/stderr redirected into tests/golden/ (the commands are the
// GoldenJobs() rows below plus the shared --input/--schema/--hierarchies
// flags), then review the diff like any code change.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "service/job_spec.h"
#include "service_process_util.h"

namespace mdc {
namespace {

const std::string kData = MDC_EXAMPLES_DATA_DIR;
const std::string kSchema =
    "zip:string:qi,age:int:qi,marital:string:qi,diagnosis:string:sensitive";

// One golden job: its CLI command and flags, and the serve kind + params
// of the same job.
struct GoldenJob {
  std::string name;
  std::string command;
  std::string cli_flags;
  std::string serve_params;
};

const std::vector<GoldenJob>& GoldenJobs() {
  static const std::vector<GoldenJob> jobs = [] {
    std::vector<GoldenJob> list;
    for (const char* algorithm :
         {"datafly", "samarati", "optimal", "mondrian", "cluster"}) {
      std::string name = algorithm;
      list.push_back({"cli_anonymize_" + name, "anonymize",
                      "--algorithm " + name + " --k 3",
                      "kind=anonymize algorithm=" + name + " k=3"});
    }
    list.push_back({"cli_perturb_rankswap", "perturb",
                    "--mechanism rankswap --seed 7",
                    "kind=perturb mechanism=rankswap seed=7"});
    list.push_back({"cli_perturb_microagg", "perturb",
                    "--mechanism microagg --k 3",
                    "kind=perturb mechanism=microagg k=3"});
    list.push_back({"cli_compare_datafly_mondrian", "compare",
                    "--algorithms datafly,mondrian --k 3",
                    "kind=compare algorithms=datafly,mondrian k=3"});
    list.push_back(
        {"cli_compare_mondrian_rankswap_microagg", "compare",
         "--algorithms mondrian,rankswap,microagg --k 3 --seed 7",
         "kind=compare algorithms=mondrian,rankswap,microagg k=3 seed=7"});
    return list;
  }();
  return jobs;
}

// The noise job: checked CLI == serve only.
const GoldenJob kNoiseJob = {"cli_perturb_noise", "perturb",
                             "--mechanism noise --seed 7",
                             "kind=perturb mechanism=noise seed=7"};

std::string ScratchDir(const std::string& tag) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp != nullptr ? tmp : "/tmp") +
                    "/mdc_cli_golden_" + std::to_string(::getpid()) + "_" +
                    tag;
  EXPECT_EQ(std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()),
            0);
  return dir;
}

std::string ReadOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct CliRun {
  int exit_code = -1;
  std::string out;
  std::string err;
};

CliRun RunCli(const std::string& args) {
  static const std::string err_path = ScratchDir("stderr") + "/stderr";
  CliRun run;
  FILE* pipe = popen((std::string(MDC_CLI_BIN) + " " + args + " 2> " +
                      err_path)
                         .c_str(),
                     "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return run;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.out.append(buffer, n);
  }
  int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.err = ReadOrEmpty(err_path);
  return run;
}

std::string FileFlags() {
  return "--input " + kData + "/patients.csv --schema " + kSchema +
         " --hierarchies " + kData + "/patients.spec";
}

std::string FileParams() {
  return "input=" + kData + "/patients.csv schema=" + kSchema +
         " hierarchies=" + kData + "/patients.spec";
}

std::string Golden(const std::string& file) {
  std::string path = std::string(MDC_GOLDEN_DIR) + "/" + file;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool HasGolden(const std::string& file) {
  return std::ifstream(std::string(MDC_GOLDEN_DIR) + "/" + file).good();
}

CliRun RunGoldenCli(const GoldenJob& job) {
  return RunCli(job.command + " " + FileFlags() + " " + job.cli_flags);
}

TEST(CliGoldenTest, CommandsMatchGoldens) {
  for (const GoldenJob& job : GoldenJobs()) {
    SCOPED_TRACE(job.name);
    CliRun run = RunGoldenCli(job);
    ASSERT_EQ(run.exit_code, 0) << run.err;
    EXPECT_EQ(run.out, Golden(job.name + ".txt"));
    const std::string stderr_golden = job.name + ".stderr.txt";
    EXPECT_EQ(run.err, HasGolden(stderr_golden) ? Golden(stderr_golden) : "");
  }
}

TEST(CliGoldenTest, DemoMatchesGolden) {
  CliRun run = RunCli("");
  ASSERT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(run.out, Golden("cli_demo.txt"));
}

TEST(CliGoldenTest, OutputFlagWritesTheSameBytes) {
  const std::string path = ScratchDir("output") + "/release.csv";
  CliRun run = RunCli("anonymize " + FileFlags() +
                      " --algorithm optimal --k 3 --output " + path);
  ASSERT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(run.out, "");
  EXPECT_EQ(ReadOrEmpty(path), Golden("cli_anonymize_optimal.txt"));
  EXPECT_EQ(run.err, Golden("cli_anonymize_optimal.stderr.txt"));
}

TEST(CliGoldenTest, BudgetedRunsPrintRunStats) {
  CliRun run = RunCli("compare " + FileFlags() +
                      " --algorithms datafly,mondrian --k 3 "
                      "--max-steps 1000000");
  ASSERT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(run.out, Golden("cli_compare_datafly_mondrian.txt"));
  EXPECT_EQ(run.err.rfind("run stats: steps=", 0), 0u) << run.err;
}

TEST(CliGoldenTest, ServeArtifactsEqualTheGoldens) {
  const std::string state = ScratchDir("serve") + "/state";
  std::vector<GoldenJob> jobs = GoldenJobs();
  jobs.push_back(kNoiseJob);
  testing::CliProcess serve(MDC_CLI_BIN, {"serve", "--state-dir", state});
  std::string line;
  ASSERT_TRUE(serve.ReadLine(line));
  ASSERT_EQ(line, "ready recovered=0");
  for (const GoldenJob& job : jobs) {
    ASSERT_TRUE(serve.SendLine("submit " + job.name + " " +
                               job.serve_params + " " + FileParams()));
    ASSERT_TRUE(serve.ReadLine(line));
    ASSERT_EQ(line, "ok " + job.name + " admitted");
  }
  ASSERT_TRUE(serve.SendLine("wait"));
  ASSERT_TRUE(serve.ReadLine(line));
  ASSERT_EQ(line, "ok wait idle");
  serve.CloseStdin();
  int status = serve.Wait();
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  for (const GoldenJob& job : GoldenJobs()) {
    EXPECT_EQ(ReadOrEmpty(state + "/artifacts/" + job.name),
              Golden(job.name + ".txt"))
        << job.name;
  }
  CliRun noise = RunGoldenCli(kNoiseJob);
  ASSERT_EQ(noise.exit_code, 0) << noise.err;
  EXPECT_FALSE(noise.out.empty());
  EXPECT_EQ(ReadOrEmpty(state + "/artifacts/" + kNoiseJob.name), noise.out);
}

void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  ASSERT_TRUE(out.good()) << path;
}

TEST(CliGoldenTest, BatchArtifactsEqualTheGoldens) {
  const std::string dir = ScratchDir("batch");
  std::string csv = "id,algorithm,k,input,schema,hierarchies\n";
  std::vector<std::string> names;
  for (const GoldenJob& job : GoldenJobs()) {
    if (job.command != "anonymize") continue;
    const std::string algorithm = job.name.substr(job.name.rfind('_') + 1);
    csv += job.name + "," + algorithm + ",3," + kData + "/patients.csv,\"" +
           kSchema + "\"," + kData + "/patients.spec\n";
    names.push_back(job.name);
  }
  ASSERT_EQ(names.size(), 5u);
  WriteFile(dir + "/jobs.csv", csv);
  CliRun run = RunCli("batch --jobs " + dir + "/jobs.csv --checkpoint-dir " +
                      dir + "/state");
  ASSERT_EQ(run.exit_code, 0) << run.out << run.err;
  EXPECT_NE(run.out.find("totals: ok=5 truncated=0 quarantined=0 "
                         "exhausted=0 pending=0\n"),
            std::string::npos)
      << run.out;
  for (const std::string& name : names) {
    EXPECT_EQ(ReadOrEmpty(dir + "/state/artifacts/" + name),
              Golden(name + ".txt"))
        << name;
  }
}

TEST(CliGoldenTest, BatchRejectsPathEscapingIds) {
  // Ids name files under --checkpoint-dir: `../escaped` is a typed
  // rejection before any job runs, and nothing lands outside the dir.
  const std::string dir = ScratchDir("batch_escape");
  WriteFile(dir + "/jobs.csv", "id,algorithm,k\n../escaped,datafly,3\n");
  CliRun run = RunCli("batch --jobs " + dir + "/jobs.csv --checkpoint-dir " +
                      dir + "/state");
  EXPECT_EQ(run.exit_code, 1) << run.out;
  EXPECT_EQ(run.err.rfind("error: invalid_argument: ", 0), 0u) << run.err;
  std::vector<std::string> files;
  testing::ListFilesUnder(dir, "", files);
  EXPECT_EQ(files, std::vector<std::string>{"jobs.csv"});
}

TEST(CliGoldenTest, AnonymizeRejectsNonFiniteReals) {
  // NaN in a real quasi-identifier breaks the order Mondrian's encode
  // sorts by; the parse rejects it before any algorithm runs.
  const std::string dir = ScratchDir("nan");
  std::string csv = "age,diagnosis\n";
  const char* nans[] = {"nan", "NaN", "-nan"};
  for (int r = 0; r < 3000; ++r) {
    csv += (r % 7 == 0 ? std::string(nans[(r / 7) % 3])
                       : std::to_string(18 + r % 50) + ".5") +
           ",d" + std::to_string(r % 5) + "\n";
  }
  ASSERT_TRUE(WriteStringToFile(dir + "/nan.csv", csv).ok());
  CliRun run = RunCli("anonymize --input " + dir +
                      "/nan.csv --schema age:real:qi,diagnosis:string:"
                      "sensitive --algorithm mondrian --k 5 --output " +
                      dir + "/release.csv");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(run.out, "");
  EXPECT_EQ(run.err.rfind(
                "error: invalid_argument: cannot parse real: 'nan' (not "
                "finite)\n",
                0),
            0u)
      << run.err;
  EXPECT_FALSE(std::ifstream(dir + "/release.csv").good());
}

TEST(CliGoldenTest, ServeQuarantinesBadNumericParams) {
  const std::string state = ScratchDir("serve_bad") + "/state";
  testing::CliProcess serve(MDC_CLI_BIN, {"serve", "--state-dir", state});
  std::string line;
  ASSERT_TRUE(serve.ReadLine(line));
  const std::vector<std::pair<std::string, std::string>> jobs = {
      {"bad-k", "kind=anonymize algorithm=mondrian k=4294967299"},
      {"bad-suppression",
       "kind=anonymize algorithm=datafly max_suppression=-1"},
  };
  for (const auto& [id, params] : jobs) {
    ASSERT_TRUE(serve.SendLine("submit " + id + " " + params + " " +
                               FileParams()));
    ASSERT_TRUE(serve.ReadLine(line));
    ASSERT_EQ(line, "ok " + id + " admitted");
  }
  ASSERT_TRUE(serve.SendLine("wait"));
  ASSERT_TRUE(serve.ReadLine(line));
  serve.CloseStdin();
  serve.Wait();

  const std::string expected[] = {"job bad-k: bad k '4294967299'",
                                  "job bad-suppression: bad max_suppression "
                                  "'-1' (a fraction in [0, 1])"};
  for (size_t i = 0; i < jobs.size(); ++i) {
    const std::string& id = jobs[i].first;
    EXPECT_EQ(ReadOrEmpty(state + "/artifacts/" + id), "") << id;
    auto bytes = ReadFileToString(state + "/done/" + id + ".done");
    ASSERT_TRUE(bytes.ok()) << id;
    auto outcome = service::DeserializeOutcome(*bytes);
    ASSERT_TRUE(outcome.ok()) << id;
    EXPECT_EQ(outcome->state, service::JobState::kQuarantined) << id;
    EXPECT_NE(outcome->message.find(expected[i]), std::string::npos)
        << outcome->message;
  }
}

}  // namespace
}  // namespace mdc
