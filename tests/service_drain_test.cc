// Process-level drain semantics for the resident service and the batch
// command (both run on ServiceCore), driven against the real CLI binary
// (path injected via MDC_CLI_BIN):
//
//  * `mdc_cli serve` + SIGTERM: the daemon stops admitting, drains, and
//    exits 0; the state directory holds no partially written artifacts
//    (`*.tmp`), and a restart + resubmission converges to artifacts that
//    are byte-identical to an uninterrupted reference run. A SIGTERM that
//    lands while a `wait` blocks stops dispatch: at most one attempt
//    after the signal, however many jobs are queued.
//  * `mdc_cli batch` + SIGTERM mid-run: exit code 3, the journal loads
//    (re-running the same command resumes), no partial artifacts, and the
//    resumed artifact set is byte-identical to an uninterrupted run — also
//    when the signal lands inside a Mondrian row, which must never be
//    recorded as a truncated result.
//  * The deterministic counters the service flushes at drain
//    (state-dir/counters.txt) are byte-identical across --threads values.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/durable_io.h"
#include "datagen/census_generator.h"
#include "service_process_util.h"

namespace mdc {
namespace {

using testing::CliProcess;
using testing::ListFilesUnder;

std::string FreshDir(const std::string& name) {
  std::string dir = "/tmp/mdc_drain_" + name + "_" +
                    std::to_string(static_cast<long>(::getpid()));
  std::string cleanup = "rm -rf " + dir;
  EXPECT_EQ(std::system(cleanup.c_str()), 0);
  EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0);
  return dir;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  ASSERT_TRUE(out.good()) << path;
}

// The canonical job set for serve tests: a spread of algorithms plus a
// comparison so both anonymize and compare artifact paths are exercised.
std::vector<std::string> ServeJobs() {
  return {
      "submit d1 kind=anonymize algorithm=datafly k=3",
      "submit m1 kind=anonymize algorithm=mondrian k=2",
      "submit s1 kind=anonymize algorithm=samarati k=3 max_suppression=0.2",
      "submit o1 kind=anonymize algorithm=optimal k=2",
      "submit c1 kind=compare algorithms=datafly,mondrian k=3",
      "submit r1 kind=report algorithm=datafly k=2",
  };
}

// Maps every artifact file under <dir>/artifacts to its bytes.
std::vector<std::pair<std::string, std::string>> ArtifactSet(
    const std::string& state_dir) {
  std::vector<std::string> names;
  ListFilesUnder(state_dir + "/artifacts", "", names);
  std::vector<std::pair<std::string, std::string>> set;
  for (const std::string& name : names) {
    set.emplace_back(name, ReadFileOrEmpty(state_dir + "/artifacts/" + name));
  }
  return set;
}

// The census microdata (datagen/census_generator.h) as a CSV file, and
// the schema spec that reads it back.
constexpr const char* kCensusSchema =
    "age:int:qi,zip:string:qi,education:string:qi,marital:string:qi,"
    "occupation:string:qi,disease:string:sensitive";

std::string WriteCensus(const std::string& path, size_t rows) {
  CensusConfig config;
  config.rows = rows;
  config.seed = 7;
  auto census = GenerateCensus(config);
  MDC_CHECK(census.ok());
  MDC_CHECK(DurableWriteFile(path, census->data->ToCsv()).ok());
  return path;
}

// name=value lines of a counters.txt.
std::map<std::string, uint64_t> ReadCounters(const std::string& path) {
  std::map<std::string, uint64_t> counters;
  std::istringstream in(ReadFileOrEmpty(path));
  std::string line;
  while (std::getline(in, line)) {
    size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    counters[line.substr(0, eq)] = std::stoull(line.substr(eq + 1));
  }
  return counters;
}

int CountTmpFiles(const std::string& dir) {
  std::vector<std::string> files;
  ListFilesUnder(dir, "", files);
  int tmp = 0;
  for (const std::string& f : files) {
    if (f.size() >= 4 && f.compare(f.size() - 4, 4, ".tmp") == 0) ++tmp;
  }
  return tmp;
}

// Runs a full, uninterrupted serve session over `jobs` and returns the
// state dir. The resulting artifacts are the byte-identical reference.
std::string ReferenceServeRun(const std::string& tag,
                              const std::vector<std::string>& jobs) {
  std::string dir = FreshDir(tag);
  CliProcess serve(MDC_CLI_BIN, {"serve", "--state-dir", dir});
  std::string line;
  EXPECT_TRUE(serve.ReadLine(line));
  EXPECT_EQ(line.rfind("ready recovered=0", 0), 0u) << line;
  for (const std::string& job : jobs) {
    EXPECT_TRUE(serve.SendLine(job));
    EXPECT_TRUE(serve.ReadLine(line));
    EXPECT_EQ(line.rfind("ok ", 0), 0u) << line;
  }
  EXPECT_TRUE(serve.SendLine("wait"));
  EXPECT_TRUE(serve.ReadLine(line));
  EXPECT_EQ(line, "ok wait idle");
  serve.CloseStdin();
  int status = serve.Wait();
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  return dir;
}

TEST(ServeDrainTest, SigtermDrainsDurablyAndResumesByteIdentically) {
  const std::vector<std::string> jobs = ServeJobs();
  const std::string reference = ReferenceServeRun("serve_ref", jobs);
  const auto want = ArtifactSet(reference);
  ASSERT_EQ(want.size(), jobs.size());

  // Life 1: submit everything, then SIGTERM immediately — the worker is
  // somewhere in the middle of the queue.
  std::string dir = FreshDir("serve_int");
  {
    CliProcess serve(MDC_CLI_BIN, {"serve", "--state-dir", dir});
    std::string line;
    ASSERT_TRUE(serve.ReadLine(line));
    ASSERT_EQ(line.rfind("ready recovered=0", 0), 0u) << line;
    for (const std::string& job : jobs) {
      ASSERT_TRUE(serve.SendLine(job));
      ASSERT_TRUE(serve.ReadLine(line));
      ASSERT_EQ(line.rfind("ok ", 0), 0u) << line;
    }
    serve.Signal(SIGTERM);
    int status = serve.Wait();
    ASSERT_TRUE(WIFEXITED(status)) << "serve must drain, not die, on SIGTERM";
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  // Graceful drain never leaves torn writes behind.
  EXPECT_EQ(CountTmpFiles(dir), 0);

  // Any artifact the drained life did finish must already be byte-exact.
  for (const auto& [name, bytes] : ArtifactSet(dir)) {
    bool matched = false;
    for (const auto& [ref_name, ref_bytes] : want) {
      if (ref_name == name) {
        matched = true;
        EXPECT_EQ(bytes, ref_bytes) << "partial artifact " << name;
      }
    }
    EXPECT_TRUE(matched) << "unexpected artifact " << name;
  }

  // Life 2: restart, resubmit everything (completed jobs are typed
  // duplicate rejections), and let the recovered queue finish.
  {
    CliProcess serve(MDC_CLI_BIN, {"serve", "--state-dir", dir});
    std::string line;
    ASSERT_TRUE(serve.ReadLine(line));
    ASSERT_EQ(line.rfind("ready recovered=", 0), 0u) << line;
    for (const std::string& job : jobs) {
      ASSERT_TRUE(serve.SendLine(job));
      ASSERT_TRUE(serve.ReadLine(line));
      ASSERT_TRUE(line.rfind("ok ", 0) == 0 ||
                  line.rfind("rejected ", 0) == 0)
          << line;
      if (line.rfind("rejected ", 0) == 0) {
        EXPECT_NE(line.find("duplicate_id"), std::string::npos) << line;
      }
    }
    ASSERT_TRUE(serve.SendLine("wait"));
    ASSERT_TRUE(serve.ReadLine(line));
    ASSERT_EQ(line, "ok wait idle");
    ASSERT_TRUE(serve.SendLine("drain"));
    ASSERT_TRUE(serve.ReadLine(line));
    ASSERT_EQ(line, "ok drain");
    serve.CloseStdin();
    int status = serve.Wait();
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  EXPECT_EQ(CountTmpFiles(dir), 0);
  EXPECT_EQ(ArtifactSet(dir), want)
      << "resumed artifacts must be byte-identical to the uninterrupted run";
}

TEST(ServeDrainTest, DeterministicCountersAreIdenticalAcrossThreadCounts) {
  const std::vector<std::string> jobs = ServeJobs();
  std::vector<std::string> counter_files;
  for (const char* threads : {"1", "4"}) {
    std::string dir = FreshDir(std::string("serve_threads_") + threads);
    CliProcess serve(MDC_CLI_BIN,
                     {"serve", "--state-dir", dir, "--threads", threads});
    std::string line;
    ASSERT_TRUE(serve.ReadLine(line));
    ASSERT_EQ(line.rfind("ready recovered=0", 0), 0u) << line;
    for (const std::string& job : jobs) {
      ASSERT_TRUE(serve.SendLine(job));
      ASSERT_TRUE(serve.ReadLine(line));
      ASSERT_EQ(line.rfind("ok ", 0), 0u) << line;
    }
    ASSERT_TRUE(serve.SendLine("wait"));
    ASSERT_TRUE(serve.ReadLine(line));
    ASSERT_EQ(line, "ok wait idle");
    ASSERT_TRUE(serve.SendLine("drain"));
    ASSERT_TRUE(serve.ReadLine(line));
    ASSERT_EQ(line, "ok drain");
    serve.CloseStdin();
    int status = serve.Wait();
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
    std::string counters = ReadFileOrEmpty(dir + "/counters.txt");
    ASSERT_FALSE(counters.empty()) << "drain must flush counters.txt";
    counter_files.push_back(counters);
  }
  EXPECT_EQ(counter_files[0], counter_files[1])
      << "svc./batch./search. counters must not depend on --threads";
}

TEST(ServeDrainTest, SigtermDuringWaitStopsDispatching) {
  // Six queued file-backed Mondrian jobs, a blocking `wait`, then SIGTERM
  // once the first artifact is durable: the in-flight job is interrupted
  // and nothing queued behind it is dispatched — no job parses its input
  // only to be cancelled.
  constexpr int kJobs = 6;
  const std::string data =
      WriteCensus(FreshDir("wait_data") + "/census.csv", 5000);
  const std::string params = "kind=anonymize algorithm=mondrian k=5 input=" +
                             data + " schema=" + kCensusSchema;
  std::string reference;
  {
    CliProcess cli(MDC_CLI_BIN,
                   {"anonymize", "--input", data, "--schema", kCensusSchema,
                    "--algorithm", "mondrian", "--k", "5"});
    cli.CloseStdin();
    std::string line;
    while (cli.ReadLine(line)) reference += line + "\n";
    int status = cli.Wait();
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  std::string dir;
  std::map<std::string, uint64_t> counters;
  for (int attempt = 0; attempt < 5; ++attempt) {
    dir = FreshDir("wait_int_" + std::to_string(attempt));
    CliProcess serve(MDC_CLI_BIN, {"serve", "--state-dir", dir});
    std::string line;
    ASSERT_TRUE(serve.ReadLine(line));
    for (int i = 0; i < kJobs; ++i) {
      ASSERT_TRUE(serve.SendLine("submit w" + std::to_string(i) + " " +
                                 params));
      ASSERT_TRUE(serve.ReadLine(line));
      ASSERT_EQ(line.rfind("ok ", 0), 0u) << line;
    }
    ASSERT_TRUE(serve.SendLine("wait"));
    for (int spin = 0; spin < 200000 && ArtifactSet(dir).empty(); ++spin) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    serve.Signal(SIGTERM);
    int status = serve.Wait();
    ASSERT_TRUE(WIFEXITED(status)) << "serve must drain, not die, on SIGTERM";
    EXPECT_EQ(WEXITSTATUS(status), 0);
    counters = ReadCounters(dir + "/counters.txt");
    if (counters["svc.completed"] < kJobs) break;  // Jobs were queued.
  }
  ASSERT_LT(counters["svc.completed"], static_cast<uint64_t>(kJobs))
      << "the queue drained before the signal in 5 tries";
  EXPECT_LE(counters["svc.attempts"], counters["svc.completed"] + 1)
      << "dispatch continued after the drain began";
  EXPECT_LE(counters["svc.interrupted"], 1u);

  // The next life completes every job byte-identically.
  {
    CliProcess serve(MDC_CLI_BIN, {"serve", "--state-dir", dir});
    std::string line;
    ASSERT_TRUE(serve.ReadLine(line));
    ASSERT_TRUE(serve.SendLine("wait"));
    ASSERT_TRUE(serve.ReadLine(line));
    ASSERT_EQ(line, "ok wait idle");
    serve.CloseStdin();
    int status = serve.Wait();
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  const auto artifacts = ArtifactSet(dir);
  ASSERT_EQ(artifacts.size(), static_cast<size_t>(kJobs));
  for (const auto& [name, bytes] : artifacts) {
    EXPECT_EQ(bytes, reference) << name;
  }
}

// ---------------------------------------------------------------------------
// batch + SIGTERM: the journal loads, no partial artifacts, byte-identical
// resume.

std::string TableJobsCsv(int jobs) {
  std::string csv = "id,algorithm,k\n";
  for (int i = 0; i < jobs; ++i) {
    // Alternate algorithms so the batch is not one homogeneous loop; the
    // optimal jobs are the slow ones that give the signal a window.
    const char* algorithm = (i % 2 == 0) ? "optimal" : "datafly";
    csv += "job" + std::to_string(i) + "," + algorithm + ",3\n";
  }
  return csv;
}

int CountArtifacts(const std::string& dir) {
  std::vector<std::string> files;
  ListFilesUnder(dir + "/artifacts", "", files);
  return static_cast<int>(files.size());
}

int CountJournalRecords(const std::string& dir) {
  std::vector<std::string> files;
  ListFilesUnder(dir + "/jobs", "", files);
  return static_cast<int>(files.size());
}

// Waits until `dir` holds at least `count` artifact files (the temporary
// file of an artifact being written counts); returns when that was seen.
std::chrono::steady_clock::time_point WaitForArtifacts(const std::string& dir,
                                                       int count) {
  for (int spin = 0; spin < 600000 && CountArtifacts(dir) < count; ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return std::chrono::steady_clock::now();
}

// Runs `mdc_cli batch` to exit; returns its stdout and sets `exit_code`.
std::string InvokeBatch(const std::string& jobs_path, const std::string& dir,
                     int& exit_code) {
  CliProcess batch(MDC_CLI_BIN,
                   {"batch", "--jobs", jobs_path, "--checkpoint-dir", dir});
  batch.CloseStdin();
  std::string out;
  std::string line;
  while (batch.ReadLine(line)) out += line + "\n";
  int status = batch.Wait();
  exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

TEST(BatchDrainTest, SigtermMidBatchCheckpointsAndResumesByteIdentically) {
  constexpr int kJobs = 48;
  const std::string jobs_csv = TableJobsCsv(kJobs);

  // Uninterrupted reference.
  std::string ref_dir = FreshDir("batch_ref");
  std::string ref_jobs = ref_dir + ".jobs.csv";  // Outside the artifact dir.
  WriteFile(ref_jobs, jobs_csv);
  {
    CliProcess batch(MDC_CLI_BIN, {"batch", "--jobs", ref_jobs,
                                   "--checkpoint-dir", ref_dir});
    batch.CloseStdin();
    int status = batch.Wait();
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }
  ASSERT_EQ(CountArtifacts(ref_dir), kJobs);

  // Interrupted run: SIGTERM once the batch is visibly mid-flight. The
  // in-flight row stops and nothing more is dispatched, so with a 48-job
  // batch the window is wide; if the batch still wins the race we retry on
  // a fresh directory rather than flake.
  std::string dir;
  bool interrupted = false;
  for (int attempt = 0; attempt < 5 && !interrupted; ++attempt) {
    dir = FreshDir("batch_int_" + std::to_string(attempt));
    std::string jobs_path = dir + ".jobs.csv";
    WriteFile(jobs_path, jobs_csv);
    CliProcess batch(MDC_CLI_BIN, {"batch", "--jobs", jobs_path,
                                   "--checkpoint-dir", dir});
    // Wait until at least two artifacts are durable, then pull the plug.
    for (int spin = 0; spin < 20000 && CountArtifacts(dir) < 2; ++spin) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    batch.Signal(SIGTERM);
    batch.CloseStdin();
    int status = batch.Wait();
    ASSERT_TRUE(WIFEXITED(status)) << "batch must exit cleanly on SIGTERM";
    if (WEXITSTATUS(status) == 0) continue;  // Finished before the signal.
    ASSERT_EQ(WEXITSTATUS(status), 3)
        << "interrupted batch must exit with the `interrupted` code";
    interrupted = true;
  }
  ASSERT_TRUE(interrupted) << "could not interrupt a 48-job batch in 5 tries";

  // Invariants at the interruption point: durable journal, fewer
  // artifacts than jobs, no torn writes.
  EXPECT_GT(CountJournalRecords(dir), 0);
  EXPECT_LT(CountArtifacts(dir), kJobs);
  EXPECT_EQ(CountTmpFiles(dir), 0);

  // Resume: the same command again runs only the remainder and exits 0.
  {
    std::string jobs_path = dir + ".jobs.csv";
    CliProcess batch(MDC_CLI_BIN, {"batch", "--jobs", jobs_path,
                                   "--checkpoint-dir", dir});
    batch.CloseStdin();
    int status = batch.Wait();
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "journal must load and the batch must complete on resume";
  }
  ASSERT_EQ(CountArtifacts(dir), kJobs);
  EXPECT_EQ(CountTmpFiles(dir), 0);

  // Byte-identical artifacts versus the uninterrupted reference.
  for (int i = 0; i < kJobs; ++i) {
    std::string name = "/artifacts/job" + std::to_string(i);
    EXPECT_EQ(ReadFileOrEmpty(dir + name), ReadFileOrEmpty(ref_dir + name))
        << "artifact diverged after resume: job" << i;
  }
}

TEST(BatchDrainTest, SigtermInsideAMondrianRowResumesByteIdentically) {
  // Mondrian degrades to a best-so-far partition when cancelled, so a
  // SIGTERM inside a Mondrian row must leave that row incomplete — never
  // a terminal `truncated` outcome whose partial release the resumed
  // batch would keep.
  const std::string data =
      WriteCensus(FreshDir("mondrian_data") + "/census.csv", 10000);
  std::string jobs_csv = "id,algorithm,k,input,schema\n";
  for (int k : {4, 5, 6, 7}) {
    jobs_csv += "m" + std::to_string(k) + ",mondrian," + std::to_string(k) +
                "," + data + ",\"" + kCensusSchema + "\"\n";
  }
  // Reference run, timed: a row whose input is already cached takes
  // `row` from one artifact to the next (the median of the three gaps).
  std::string ref_dir = FreshDir("mondrian_ref");
  WriteFile(ref_dir + ".jobs.csv", jobs_csv);
  std::chrono::steady_clock::duration row{};
  {
    CliProcess batch(MDC_CLI_BIN, {"batch", "--jobs", ref_dir + ".jobs.csv",
                                   "--checkpoint-dir", ref_dir});
    std::vector<std::chrono::steady_clock::duration> gaps;
    auto previous = WaitForArtifacts(ref_dir, 1);
    for (int count = 2; count <= 4; ++count) {
      const auto next = WaitForArtifacts(ref_dir, count);
      gaps.push_back(next - previous);
      previous = next;
    }
    std::sort(gaps.begin(), gaps.end());
    row = gaps[1];
    batch.CloseStdin();
    int status = batch.Wait();
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  ASSERT_EQ(CountArtifacts(ref_dir), 4);
  const uint64_t reference_steps =
      ReadCounters(ref_dir + "/counters.txt")["run.steps"];
  ASSERT_GT(reference_steps, 0u);

  // Each attempt SIGTERMs a fraction of a row after the first artifact
  // lands, inside the second row, then resumes. The deterministic run.*
  // counters say where the signal landed: the two lives together charge
  // the reference run's steps plus the steps the interrupted Mondrian
  // took before it saw the cancellation (run.cancelled). Two or more mean
  // the signal arrived inside the recursion, after its first budget
  // check; a Mondrian that finished first never saw it. The recursion
  // runs early in a row (its release is rendered and written after it),
  // so attempt i aims at half the i-th point of the base-2 van der Corput
  // sequence (1/4, 1/8, 3/8, 1/16, ...): the first half of the row,
  // covered ever more finely whatever the timing noise. Every attempt
  // must resume byte-identically wherever its signal landed.
  bool landed_in_mondrian = false;
  int exit_code = -1;
  for (int attempt = 1; attempt <= 16 && !landed_in_mondrian; ++attempt) {
    double fraction = 0.0;
    for (int bits = attempt, scale = 4; bits > 0; bits >>= 1, scale *= 2) {
      fraction += static_cast<double>(bits & 1) / scale;
    }
    const std::string dir =
        FreshDir("mondrian_int_" + std::to_string(attempt));
    WriteFile(dir + ".jobs.csv", jobs_csv);
    CliProcess batch(MDC_CLI_BIN, {"batch", "--jobs", dir + ".jobs.csv",
                                   "--checkpoint-dir", dir});
    std::this_thread::sleep_until(
        WaitForArtifacts(dir, 1) +
        std::chrono::duration_cast<std::chrono::microseconds>(row *
                                                              fraction));
    batch.Signal(SIGTERM);
    batch.CloseStdin();
    int status = batch.Wait();
    ASSERT_TRUE(WIFEXITED(status)) << "batch must exit cleanly on SIGTERM";
    if (WEXITSTATUS(status) == 0) continue;  // Finished before the signal.
    ASSERT_EQ(WEXITSTATUS(status), 3);
    EXPECT_LT(CountArtifacts(dir), 4);
    std::map<std::string, uint64_t> interrupted =
        ReadCounters(dir + "/counters.txt");

    std::string summary = InvokeBatch(dir + ".jobs.csv", dir, exit_code);
    EXPECT_EQ(exit_code, 0) << summary;
    EXPECT_NE(summary.find("totals: ok=4 truncated=0 "), std::string::npos)
        << summary;
    EXPECT_EQ(CountTmpFiles(dir), 0);
    for (int k : {4, 5, 6, 7}) {
      std::string name = "/artifacts/m" + std::to_string(k);
      EXPECT_EQ(ReadFileOrEmpty(dir + name), ReadFileOrEmpty(ref_dir + name))
          << "artifact diverged after resume: m" << k;
    }
    const uint64_t both_lives =
        interrupted["run.steps"] +
        ReadCounters(dir + "/counters.txt")["run.steps"];
    landed_in_mondrian = interrupted["run.cancelled"] == 1 &&
                         both_lives >= reference_steps + 2;
  }
  ASSERT_TRUE(landed_in_mondrian)
      << "no SIGTERM landed inside a Mondrian recursion in 16 tries";
}

}  // namespace
}  // namespace mdc
