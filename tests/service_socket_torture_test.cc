// Socket-mode kill-torture: the two-life SIGKILL protocol of
// service_torture_test.cc, run end-to-end over the wire. Each seed:
//
//   life 1: start `mdc_cli serve --listen unix:<dir>/sock`, drive it with
//           the real ServiceClient (connect/request timeouts, decorrelated-
//           jitter retry, idempotent resubmission), and SIGKILL the daemon
//           mid-connection — timed from the parent, or armed inside a
//           net.accept / net.read / net.write / net.close syscall window,
//           or inside the durable-io / execution windows the stdin harness
//           already tortures.
//   life 2: restart on the same state directory, reuse the SAME client
//           instance (its reconnect path must carry it across the daemon
//           restart), resubmit everything, wait, drain.
//
// The invariant is the stdin harness's, now end-to-end over the wire: the
// artifact set is byte-identical to a clean *stdin-mode* reference run (so
// this also proves the two front-ends produce identical state), done/
// holds one record per job, no torn *.tmp files, and a retried submit is
// at-most-once (life-2 resubmits answer admitted or duplicate_id, never a
// second execution).

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "service/client.h"
#include "service_process_util.h"

namespace mdc {
namespace {

using testing::CliProcess;
using testing::ListFilesUnder;

// MDC_TORTURE_SEEDS pins the count in CI; the default satisfies the >=40
// bar for the socket mode.
int SeedCount() {
  if (const char* env = std::getenv("MDC_TORTURE_SEEDS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 45;
}

uint64_t NextRandom(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string FreshDir(const std::string& name) {
  std::string dir = "/tmp/mdc_sock_torture_" + name + "_" +
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

// Same job set as the stdin torture (fast, diverse, checkpointable), but
// as bare submit payloads — the client prepends the verb.
const std::vector<std::string>& TortureSpecs() {
  static const std::vector<std::string> specs = {
      "t-d1 kind=anonymize algorithm=datafly k=3",
      "t-m1 kind=anonymize algorithm=mondrian k=2",
      "t-s1 kind=anonymize algorithm=samarati k=3 max_suppression=0.2",
      "t-o1 kind=anonymize algorithm=optimal k=2",
      "t-c1 kind=compare algorithms=datafly,mondrian k=3",
      "t-r1 kind=report algorithm=datafly k=2",
  };
  return specs;
}

// Cache-enabled leg: the same six-job shape over file-backed fixtures, so
// every execution resolves through the resident dataset cache while the
// SIGKILL machinery runs. The cache is memory-only; recovery converging
// byte-identically proves nothing durable ever depended on it.
const std::vector<std::string>& CachedTortureSpecs() {
  static const std::vector<std::string> specs = [] {
    std::string dir = "/tmp/mdc_sock_torture_fixtures_" +
                      std::to_string(static_cast<long>(::getpid()));
    std::string cleanup = "rm -rf " + dir;
    EXPECT_EQ(std::system(cleanup.c_str()), 0);
    EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0);
    static const char* kZips[] = {"13053", "13268", "13253", "13250"};
    static const char* kMarital[] = {"CF-Spouse",     "Spouse Present",
                                     "Separated",     "Never Married",
                                     "Divorced",      "Spouse Absent"};
    static const char* kDiagnosis[] = {"Flu", "Cold", "Angina"};
    std::string csv = "zip,age,marital,diagnosis\n";
    for (int i = 0; i < 48; ++i) {
      int mixed = i * 7 + 5;
      csv += std::string(kZips[mixed % 4]) + "," +
             std::to_string(20 + (mixed * 3) % 45) + "," +
             kMarital[(mixed / 4) % 6] + "," +
             kDiagnosis[(mixed / 24) % 3] + "\n";
    }
    std::ofstream(dir + "/data.csv", std::ios::binary) << csv;
    std::ofstream(dir + "/hier.spec", std::ios::binary)
        << "column zip suffix 5\n"
           "column age intervals 10@5 20@15\n"
           "column marital taxonomy\n"
           "edge Married|*\n"
           "edge Not Married|*\n"
           "edge CF-Spouse|Married\n"
           "edge Spouse Present|Married\n"
           "edge Separated|Not Married\n"
           "edge Never Married|Not Married\n"
           "edge Divorced|Not Married\n"
           "edge Spouse Absent|Not Married\n"
           "end\n";
    const std::string files =
        " input=" + dir + "/data.csv" +
        " schema=zip:string:qi,age:int:qi,marital:string:qi,"
        "diagnosis:string:sensitive hierarchies=" +
        dir + "/hier.spec";
    return std::vector<std::string>{
        "t-d1 kind=anonymize algorithm=datafly k=3" + files,
        "t-m1 kind=anonymize algorithm=mondrian k=2" + files,
        "t-s1 kind=anonymize algorithm=samarati k=3 max_suppression=0.2" +
            files,
        "t-o1 kind=anonymize algorithm=optimal k=2" + files,
        "t-c1 kind=compare algorithms=datafly,mondrian,noise k=3 seed=7 "
        "sensitive=3" + files,
        "t-r1 kind=report algorithm=datafly k=2" + files,
    };
  }();
  return specs;
}

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

int CountFilesWithSuffix(const std::string& dir, const std::string& suffix) {
  std::vector<std::string> files;
  ListFilesUnder(dir, "", files);
  int count = 0;
  for (const std::string& f : files) {
    if (f.size() >= suffix.size() &&
        f.compare(f.size() - suffix.size(), suffix.size(), suffix) == 0) {
      ++count;
    }
  }
  return count;
}

// The oracle is a clean STDIN-mode run: converging to it also proves the
// socket front-end writes byte-identical durable state.
std::vector<std::pair<std::string, std::string>> ReferenceArtifacts(
    const std::vector<std::string>& specs) {
  std::string dir = FreshDir("reference");
  CliProcess serve(MDC_CLI_BIN, {"serve", "--state-dir", dir});
  std::string line;
  EXPECT_TRUE(serve.ReadLine(line));
  EXPECT_EQ(line.rfind("ready recovered=0", 0), 0u) << line;
  for (const std::string& spec : specs) {
    EXPECT_TRUE(serve.SendLine("submit " + spec));
    EXPECT_TRUE(serve.ReadLine(line));
    EXPECT_EQ(line.rfind("ok ", 0), 0u) << line;
  }
  EXPECT_TRUE(serve.SendLine("wait"));
  EXPECT_TRUE(serve.ReadLine(line));
  EXPECT_EQ(line, "ok wait idle");
  EXPECT_TRUE(serve.SendLine("drain"));
  EXPECT_TRUE(serve.ReadLine(line));
  EXPECT_EQ(line, "ok drain");
  serve.CloseStdin();
  int status = serve.Wait();
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  return ArtifactSet(dir);
}

service::ClientConfig TortureClientConfig(const std::string& target,
                                          uint64_t seed) {
  service::ClientConfig config;
  config.target = target;
  config.connect_timeout_ms = 1000;
  config.request_timeout_ms = 20000;  // Jobs run while submits queue up.
  config.max_retries = 3;
  config.backoff_base_ms = 2;
  config.backoff_max_ms = 50;
  config.backoff_jitter_seed = seed;
  return config;
}

// One tortured life + one recovery life over the socket.
void RunSeed(uint64_t seed, const std::string& dir,
             const std::vector<std::string>& specs,
             const std::vector<std::pair<std::string, std::string>>& want,
             bool* kill_landed_out, uint64_t* reconnects_out) {
  uint64_t rng = seed * 0x9e3779b97f4a7c15ull + 1;
  // Kill placement: mode 0 is a parent-timed SIGKILL; modes 1-4 land the
  // kill inside the transport's own syscall windows (accept/read/write/
  // close); modes 5-7 keep the durable-io and execution windows tortured
  // so the socket path composes with the existing proof.
  const int mode = static_cast<int>(NextRandom(rng) % 8);
  std::vector<std::string> env;
  switch (mode) {
    case 1:
      env.push_back("MDC_FAILPOINTS=net.accept=kill:skip=" +
                    std::to_string(NextRandom(rng) % 3));
      break;
    case 2:
      env.push_back("MDC_FAILPOINTS=net.read=kill:skip=" +
                    std::to_string(NextRandom(rng) % 10));
      break;
    case 3:
      env.push_back("MDC_FAILPOINTS=net.write=kill:skip=" +
                    std::to_string(NextRandom(rng) % 10));
      break;
    case 4:
      env.push_back("MDC_FAILPOINTS=net.close=kill:skip=" +
                    std::to_string(NextRandom(rng) % 3));
      break;
    case 5:
      env.push_back("MDC_FAILPOINTS=io.rename=kill:skip=" +
                    std::to_string(NextRandom(rng) % 14));
      break;
    case 6:
      env.push_back("MDC_FAILPOINTS=io.fsync=kill:skip=" +
                    std::to_string(NextRandom(rng) % 24));
      break;
    case 7:
      env.push_back("MDC_FAILPOINTS=svc.execute=kill:skip=" +
                    std::to_string(NextRandom(rng) % 6));
      break;
    default:
      break;
  }

  const std::string listen = "unix:" + dir + "/mdcd.sock";
  // One client across both lives: its reconnect/retry machinery is part of
  // what this harness proves.
  service::ServiceClient client(TortureClientConfig(listen, seed));

  // Life 1: every interaction tolerates sudden death — a failed submit or
  // wait IS the crash point under test.
  *kill_landed_out = false;
  {
    CliProcess serve(MDC_CLI_BIN,
                     {"serve", "--state-dir", dir, "--listen", listen}, env);
    std::thread killer;
    if (mode == 0) {
      const int delay_ms = static_cast<int>(NextRandom(rng) % 60);
      pid_t pid = serve.pid();
      killer = std::thread([pid, delay_ms] {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        ::kill(pid, SIGKILL);
      });
    }
    std::string line;
    bool alive = serve.ReadLine(line);
    if (alive) {
      EXPECT_EQ(line.rfind("ready recovered=0", 0), 0u)
          << "seed " << seed << ": " << line;
      EXPECT_NE(line.find(" listen=" + listen), std::string::npos)
          << "seed " << seed << ": " << line;
    }
    bool session_ok = alive;
    for (const std::string& spec : specs) {
      if (!session_ok) break;
      auto submit = client.Submit(spec);
      if (!submit.ok()) {
        session_ok = false;  // Daemon died (or is dying) — stop driving.
        break;
      }
      EXPECT_TRUE(submit->accepted()) << "seed " << seed << ": "
                                      << submit->reply;
    }
    if (session_ok && client.WaitIdle(/*timeout_ms=*/60000).ok()) {
      (void)client.Drain();
    }
    client.Disconnect();
    serve.CloseStdin();
    int status = serve.Wait();
    if (killer.joinable()) killer.join();
    if (WIFSIGNALED(status)) {
      EXPECT_EQ(WTERMSIG(status), SIGKILL) << "seed " << seed;
      *kill_landed_out = true;
    } else {
      ASSERT_TRUE(WIFEXITED(status)) << "seed " << seed;
      EXPECT_EQ(WEXITSTATUS(status), 0) << "seed " << seed;
    }
  }

  // Life 2: no failpoints, no kills, same state dir, same client.
  // Resubmission must be at-most-once end to end: journaled jobs answer
  // duplicate_id, lost-before-journal jobs admit fresh.
  {
    CliProcess serve(MDC_CLI_BIN,
                     {"serve", "--state-dir", dir, "--listen", listen});
    std::string line;
    ASSERT_TRUE(serve.ReadLine(line)) << "seed " << seed;
    ASSERT_EQ(line.rfind("ready recovered=", 0), 0u)
        << "seed " << seed << ": " << line;
    for (const std::string& spec : specs) {
      auto submit = client.Submit(spec);
      ASSERT_TRUE(submit.ok())
          << "seed " << seed << ": " << submit.status().ToString();
      ASSERT_TRUE(submit->accepted()) << "seed " << seed << ": "
                                      << submit->reply;
    }
    ASSERT_TRUE(client.WaitIdle(/*timeout_ms=*/120000).ok()) << "seed " << seed;
    ASSERT_TRUE(client.Drain().ok()) << "seed " << seed;
    serve.CloseStdin();
    int status = serve.Wait();
    ASSERT_TRUE(WIFEXITED(status)) << "seed " << seed;
    ASSERT_EQ(WEXITSTATUS(status), 0) << "seed " << seed;
  }

  EXPECT_EQ(ArtifactSet(dir), want) << "seed " << seed << " (mode " << mode
                                    << "): artifacts diverged";
  EXPECT_EQ(CountFilesWithSuffix(dir + "/done", ".done"),
            static_cast<int>(specs.size()))
      << "seed " << seed;
  EXPECT_EQ(CountFilesWithSuffix(dir, ".tmp"), 0) << "seed " << seed;
  *reconnects_out = client.reconnects();
}

TEST(ServiceSocketTortureTest, KillMidConnectionRetryConvergeByteIdentical) {
  // Most kills are MDC_FAILPOINTS kill actions in the child, which a
  // build with failpoints compiled out ignores: the seeds would run
  // unkilled and fail the kill-count guard below.
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "library built with MDC_FAILPOINTS=OFF";
  }
  // Alternating legs by seed: the classic table1 specs and the file-backed
  // specs that execute through the resident dataset cache.
  const auto want_plain = ReferenceArtifacts(TortureSpecs());
  ASSERT_EQ(want_plain.size(), TortureSpecs().size());
  const auto want_cached = ReferenceArtifacts(CachedTortureSpecs());
  ASSERT_EQ(want_cached.size(), CachedTortureSpecs().size());
  const int seeds = SeedCount();
  int killed = 0;
  uint64_t reconnects = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    std::string dir = FreshDir("seed_" + std::to_string(seed));
    const bool cached_leg = (seed % 2) == 0;
    bool kill_landed = false;
    uint64_t seed_reconnects = 0;
    RunSeed(static_cast<uint64_t>(seed), dir,
            cached_leg ? CachedTortureSpecs() : TortureSpecs(),
            cached_leg ? want_cached : want_plain, &kill_landed,
            &seed_reconnects);
    if (kill_landed) ++killed;
    reconnects += seed_reconnects;
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "stopping at first fatally broken seed: " << seed;
      break;
    }
    std::string cleanup = "rm -rf " + dir;
    ASSERT_EQ(std::system(cleanup.c_str()), 0);
  }
  // Harness-gone-soft guards: enough seeds must actually die, and dying
  // mid-connection must actually exercise the client's reconnect machinery
  // (if no kill ever forces a reconnect, the "resilient client" is
  // untested decoration).
  EXPECT_GE(killed, seeds / 3)
      << "only " << killed << "/" << seeds
      << " seeds were actually killed - the harness has gone soft";
  if (killed > 0) {
    EXPECT_GT(reconnects, 0u)
        << "kills landed but the client never reconnected - the retry path "
           "was not exercised";
  }
}

}  // namespace
}  // namespace mdc
