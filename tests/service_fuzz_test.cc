// Randomized hostile-input suites for the service's parsing surfaces: the
// newline wire protocol (HandleProtocolLine + ParseSubmitSpec) and the
// durable record codecs (SerializeJobSpec / SerializeOutcome and their
// deserializers). The contract under fuzz is narrow and absolute:
//
//   - no input crashes, aborts, or hangs a parser;
//   - every accepted submit spec satisfies the token invariants that make
//     ids safe as file names and protocol tokens;
//   - every protocol line gets a reply from the fixed grammar
//     ("ok ..." / "rejected ..." / "err ...") or a wait/drain action;
//   - serialize -> deserialize is the identity for valid records, and
//     corrupted bytes (bit flips, truncation, garbage) either fail with a
//     clean Status or decode to a record — never undefined behavior.
//
// Deterministic SplitMix64 streams keep failures reproducible by seed.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <map>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "service/job_spec.h"
#include "service/service_core.h"
#include "service/transport.h"

namespace mdc::service {
namespace {

uint64_t NextRandom(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Hostile byte soup: control characters, NULs, UTF-8 fragments, '=' and
// space runs — everything the wire can deliver short of a newline (the
// framing layer strips those before parsers see the line).
std::string RandomHostileLine(uint64_t& rng, size_t max_len) {
  static const char* kFragments[] = {
      "submit",  "status", "wait",   "drain", "id",     "kind=",
      "tenant=", "cost=",  "k=3",    "=",     "==",     " ",
      "\t",      "\xff",   "\xc3\x28", "\x00", "anonymize", "compare",
      "-",       ".",      "_",      "deadline_ms=", "max_steps=", "9999999999999999999",
      "metrics", "cache",  "stats",  "clear", "cache=off", "cache=maybe",
  };
  std::string line;
  size_t parts = NextRandom(rng) % 12;
  for (size_t i = 0; i < parts && line.size() < max_len; ++i) {
    if (NextRandom(rng) % 3 == 0) {
      const char* frag = kFragments[NextRandom(rng) % (sizeof(kFragments) /
                                                       sizeof(kFragments[0]))];
      // Embed NUL fragments with explicit length.
      line.append(frag, frag[0] == '\0' ? 1 : std::char_traits<char>::length(frag));
    } else {
      size_t run = 1 + NextRandom(rng) % 8;
      for (size_t j = 0; j < run; ++j) {
        line.push_back(static_cast<char>(NextRandom(rng) % 256));
      }
    }
  }
  // Parsers receive framed lines: the transport has already consumed the
  // terminator, so embedded newlines cannot occur.
  for (char& c : line) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return line;
}

JobSpec RandomValidSpec(uint64_t& rng) {
  static const char* kKinds[] = {"anonymize", "compare", "report"};
  static const char* kTokenChars =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
  auto token = [&](size_t min_len, size_t max_len) {
    size_t len = min_len + NextRandom(rng) % (max_len - min_len + 1);
    std::string t;
    for (size_t i = 0; i < len; ++i) {
      t.push_back(kTokenChars[NextRandom(rng) % 64]);
    }
    // "." and ".." use only token characters but name directories.
    return IsValidToken(t) ? t : "x" + t;
  };
  JobSpec spec;
  spec.id = token(1, 24);
  spec.tenant = token(1, 12);
  spec.kind = kKinds[NextRandom(rng) % 3];
  spec.cost = 1 + NextRandom(rng) % 100;
  spec.deadline_ms = static_cast<int64_t>(NextRandom(rng) % 100000);
  spec.max_steps = NextRandom(rng) % 1000000;
  size_t params = NextRandom(rng) % 5;
  for (size_t i = 0; i < params; ++i) {
    spec.params[token(1, 10)] = token(1, 16);
  }
  return spec;
}

TEST(ParseSubmitSpecFuzzTest, HostileInputsNeverCrashAndAcceptsAreSafe) {
  uint64_t rng = 0x5eed0001;
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string line = RandomHostileLine(rng, 512);
    auto spec = ParseSubmitSpec(line);
    if (!spec.ok()) continue;
    ++accepted;
    // Anything accepted must be safe to use as a file name and to echo
    // back on the wire.
    EXPECT_TRUE(IsValidToken(spec->id)) << "input: " << line;
    EXPECT_TRUE(IsValidToken(spec->tenant)) << "input: " << line;
    EXPECT_TRUE(spec->kind == "anonymize" || spec->kind == "compare" ||
                spec->kind == "report")
        << "input: " << line;
    EXPECT_GE(spec->cost, 1u) << "input: " << line;
  }
  // The generator emits some well-formed prefixes on purpose; if nothing
  // ever parses, the fuzzer is only exercising the first reject branch.
  EXPECT_GT(accepted, 0) << "fuzz corpus never produced a valid spec";
}

TEST(JobSpecCodecFuzzTest, SerializedRecordsRoundTripExactly) {
  uint64_t rng = 0x5eed0002;
  for (int i = 0; i < 2000; ++i) {
    JobSpec spec = RandomValidSpec(rng);
    uint64_t seq = NextRandom(rng);
    auto record = DeserializeJobSpec(SerializeJobSpec(spec, seq));
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    EXPECT_EQ(record->seq, seq);
    EXPECT_EQ(record->spec.id, spec.id);
    EXPECT_EQ(record->spec.tenant, spec.tenant);
    EXPECT_EQ(record->spec.kind, spec.kind);
    EXPECT_EQ(record->spec.cost, spec.cost);
    EXPECT_EQ(record->spec.deadline_ms, spec.deadline_ms);
    EXPECT_EQ(record->spec.max_steps, spec.max_steps);
    EXPECT_EQ(record->spec.params, spec.params);
  }
}

TEST(JobSpecCodecFuzzTest, CorruptedRecordsFailCleanly) {
  uint64_t rng = 0x5eed0003;
  int clean_failures = 0;
  for (int i = 0; i < 4000; ++i) {
    JobSpec spec = RandomValidSpec(rng);
    std::string bytes = SerializeJobSpec(spec, NextRandom(rng) % 1000);
    switch (NextRandom(rng) % 3) {
      case 0: {  // Bit flip.
        size_t pos = NextRandom(rng) % bytes.size();
        bytes[pos] ^= static_cast<char>(1u << (NextRandom(rng) % 8));
        break;
      }
      case 1:  // Truncation.
        bytes.resize(NextRandom(rng) % bytes.size());
        break;
      default:  // Garbage suffix.
        bytes += RandomHostileLine(rng, 64);
        break;
    }
    auto record = DeserializeJobSpec(bytes);  // Must not crash.
    if (!record.ok()) ++clean_failures;
  }
  // The snapshot CRC catches essentially all of these; a corpus where
  // nothing ever fails means corruption is not being detected at all.
  EXPECT_GT(clean_failures, 3000);
}

TEST(OutcomeCodecFuzzTest, RoundTripsAndRejectsCorruptionCleanly) {
  uint64_t rng = 0x5eed0004;
  static const JobState kStates[] = {JobState::kPending, JobState::kOk,
                                     JobState::kTruncated,
                                     JobState::kQuarantined,
                                     JobState::kExhausted};
  int clean_failures = 0;
  for (int i = 0; i < 4000; ++i) {
    JobOutcome outcome;
    outcome.id = RandomValidSpec(rng).id;
    outcome.state = kStates[NextRandom(rng) % 5];
    outcome.attempts = static_cast<uint32_t>(NextRandom(rng) % 10);
    outcome.message = (NextRandom(rng) % 2) ? "transient: io" : "";
    std::string bytes = SerializeOutcome(outcome);
    auto decoded = DeserializeOutcome(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->id, outcome.id);
    EXPECT_EQ(decoded->state, outcome.state);
    EXPECT_EQ(decoded->attempts, outcome.attempts);
    EXPECT_EQ(decoded->message, outcome.message);
    if (!bytes.empty()) {
      size_t pos = NextRandom(rng) % bytes.size();
      bytes[pos] ^= static_cast<char>(1u << (NextRandom(rng) % 8));
      if (!DeserializeOutcome(bytes).ok()) ++clean_failures;
    }
  }
  EXPECT_GT(clean_failures, 3000);
}

// The full protocol surface against a live core: every hostile line must
// produce a grammar-conforming action, and the core must stay healthy
// enough afterwards to serve a well-formed request.
TEST(ProtocolFuzzTest, HostileLinesAlwaysGetTypedRepliesAndNeverWedgeTheCore) {
  std::string dir = "/tmp/mdc_fuzz_proto_" +
                    std::to_string(static_cast<long>(::getpid()));
  std::string cleanup = "rm -rf " + dir;
  ASSERT_EQ(std::system(cleanup.c_str()), 0);

  ServiceConfig config;
  config.state_dir = dir;
  auto core = ServiceCore::Start(config, [](const ServiceCore::ExecRequest&) {
    ServiceCore::ExecResult result;
    result.artifact = "x\n";
    return result;
  });
  ASSERT_TRUE(core.ok()) << core.status().ToString();

  uint64_t rng = 0x5eed0005;
  for (int i = 0; i < 5000; ++i) {
    std::string line = RandomHostileLine(rng, 256);
    // The front ends silently drop blank and space-prefixed lines before
    // parsing; mirror that framing here.
    if (line.empty() || line[0] == ' ') continue;
    ProtocolAction action = HandleProtocolLine(**core, line);
    switch (action.kind) {
      case ProtocolAction::Kind::kReply:
        ASSERT_TRUE(action.reply.rfind("ok ", 0) == 0 ||
                    action.reply.rfind("rejected ", 0) == 0 ||
                    action.reply.rfind("err ", 0) == 0)
            << "line " << i << " got off-grammar reply: " << action.reply;
        break;
      case ProtocolAction::Kind::kWaitIdle:
      case ProtocolAction::Kind::kDrain:
        break;
    }
  }

  // Still healthy: a clean submit round-trips through the tortured core.
  // (Drain the backlog of accidentally-valid fuzz submits first so the
  // probe cannot hit a transiently full queue.)
  (*core)->WaitIdle();
  ProtocolAction probe =
      HandleProtocolLine(**core, "submit fuzz-probe kind=anonymize k=2");
  ASSERT_EQ(probe.kind, ProtocolAction::Kind::kReply);
  EXPECT_EQ(probe.reply, "ok fuzz-probe admitted");
  (*core)->WaitIdle();
  EXPECT_TRUE((*core)->Drain().ok());
  core->reset();
  ASSERT_EQ(std::system(cleanup.c_str()), 0);
}

// Directed fuzz of the observability verbs: `metrics` and `cache <sub>`
// take arbitrary payloads straight off the wire, so every payload — byte
// soup included — must come back as an immediate typed reply, and the
// cache verbs must still work afterwards.
TEST(ProtocolFuzzTest, MetricsAndCacheVerbsSurviveHostilePayloads) {
  std::string dir = "/tmp/mdc_fuzz_cacheverb_" +
                    std::to_string(static_cast<long>(::getpid()));
  std::string cleanup = "rm -rf " + dir;
  ASSERT_EQ(std::system(cleanup.c_str()), 0);

  ServiceConfig config;
  config.state_dir = dir;
  auto core = ServiceCore::Start(config, [](const ServiceCore::ExecRequest&) {
    ServiceCore::ExecResult result;
    result.artifact = "x\n";
    return result;
  });
  ASSERT_TRUE(core.ok()) << core.status().ToString();

  uint64_t rng = 0x5eed0006;
  for (int i = 0; i < 3000; ++i) {
    std::string payload = RandomHostileLine(rng, 128);
    std::string line =
        (NextRandom(rng) % 2 == 0 ? "cache" : "metrics") +
        (payload.empty() ? std::string() : " " + payload);
    ProtocolAction action = HandleProtocolLine(**core, line);
    ASSERT_EQ(action.kind, ProtocolAction::Kind::kReply)
        << "verb line must reply immediately: " << line;
    ASSERT_TRUE(action.reply.rfind("ok ", 0) == 0 ||
                action.reply.rfind("err ", 0) == 0)
        << "line " << i << " got off-grammar reply: " << action.reply;
    // Replies are newline-framed on the wire; an embedded newline in a
    // metrics snapshot or stats line would desynchronize every client.
    ASSERT_EQ(action.reply.find('\n'), std::string::npos) << action.reply;
  }

  // The verbs still function after the barrage.
  EXPECT_EQ(HandleProtocolLine(**core, "cache clear").reply.rfind("ok cache", 0),
            0u);
  EXPECT_EQ(HandleProtocolLine(**core, "cache stats").reply.rfind("ok cache", 0),
            0u);
  EXPECT_EQ(HandleProtocolLine(**core, "metrics").reply.rfind("ok metrics {", 0),
            0u);
  EXPECT_TRUE((*core)->Drain().ok());
  core->reset();
  ASSERT_EQ(std::system(cleanup.c_str()), 0);
}

// Runs the real CLI `serve` with one --cache-bytes value and stdin closed
// immediately: an accepted value must start the service and drain cleanly
// on EOF (exit 0); a rejected one must fail with the usage error (exit 1).
// Either way the process may not die to a signal.
int ServeExitWithCacheBytes(const std::string& dir, const std::string& value) {
  int in_pipe[2] = {-1, -1};
  if (::pipe(in_pipe) != 0) return -1;
  pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    // The corpus provokes error spew on purpose; keep the test log clean.
    int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
    }
    ::execl(MDC_CLI_BIN, MDC_CLI_BIN, "serve", "--state-dir", dir.c_str(),
            "--cache-bytes", value.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(in_pipe[1]);  // EOF on stdin: accepted flags drain immediately.
  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) != pid) return -1;
  return wstatus;
}

TEST(CacheFlagFuzzTest, HostileCacheBytesValuesFailCleanlyOrServeAndDrain) {
  std::string dir = "/tmp/mdc_fuzz_cachebytes_" +
                    std::to_string(static_cast<long>(::getpid()));
  std::string cleanup = "rm -rf " + dir;
  ASSERT_EQ(std::system(cleanup.c_str()), 0);

  struct Case {
    const char* value;
    bool valid;
  };
  // ParseInt64 strips surrounding whitespace, so " 4096" is accepted by
  // design; everything non-decimal, negative, or overflowing is not.
  const Case kCases[] = {
      {"", false},
      {"-1", false},
      {"abc", false},
      {"1e9", false},
      {"0x1000", false},
      {"99999999999999999999999999", false},
      {"4096kb", false},
      {"\xff\xfe", false},
      {"=", false},
      {"--no-cache", false},
      {" 4096", true},
      {"0", true},
      {"4096", true},
      {"1048576", true},
  };
  for (const Case& c : kCases) {
    int wstatus = ServeExitWithCacheBytes(dir, c.value);
    ASSERT_GE(wstatus, 0) << "spawn failed for value '" << c.value << "'";
    ASSERT_TRUE(WIFEXITED(wstatus))
        << "--cache-bytes '" << c.value << "' killed the CLI";
    EXPECT_EQ(WEXITSTATUS(wstatus), c.valid ? 0 : 1)
        << "--cache-bytes '" << c.value << "'";
  }
  ASSERT_EQ(std::system(cleanup.c_str()), 0);
}

}  // namespace
}  // namespace mdc::service
