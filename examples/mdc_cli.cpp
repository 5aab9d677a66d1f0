// mdc_cli — command-line anonymization and comparison.
//
//   example_mdc_cli anonymize --input data.csv --schema <spec>
//       --hierarchies spec.txt --algorithm datafly --k 3
//       [--max-suppression 0.02] [--output out.csv]
//       [--deadline-ms 500] [--max-steps 100000] [--threads 4]
//   example_mdc_cli perturb --input data.csv --schema <spec>
//       --mechanism <noise|rankswap|microagg> [--seed <n>]
//       [--noise-scale <frac>] [--swap-window <frac>] [--k <n>]
//       [--output out.csv]
//   example_mdc_cli compare --input data.csv --schema <spec>
//       --hierarchies spec.txt --k 3 --algorithms datafly,mondrian
//
// The three commands are jobs of the library executor
// (service/executor.h): their flags become the job's params (dashes read
// as underscores), and the artifact goes to stdout or, durably, to
// --output. `perturb` releases numeric quasi-identifiers through a
// perturbative (non-generalization) mechanism and prints the
// permutation-model summary (docs/permutation.md) on stderr. `compare`
// with more than two names, or with any perturbative mechanism in the
// list, ranks all releases under the permutation paradigm instead of the
// two-release report.
//   example_mdc_cli batch --jobs jobs.csv --checkpoint-dir out
//       [--max-retries 2] [--backoff-ms 10]
//
// `--schema` is an inline column list "name:type:role,..." with type in
// {int,real,string} and role in {qi,sensitive,insensitive,id}.
// `--hierarchies` is a hierarchy spec file (see hierarchy/spec_parser.h);
// Mondrian and clustering work without one. `--deadline-ms` and
// `--max-steps` bound each algorithm run (see docs/error_handling.md);
// truncated results are flagged on stderr.
//
// `batch` runs a CSV of jobs (columns: id, algorithm, and optionally
// dataset|input+schema+hierarchies, k, max_suppression, deadline_ms,
// max_steps) on the same service core as `serve`, with --checkpoint-dir
// as its state dir (docs/error_handling.md): each row is a kind=anonymize
// job of the executor, transient failures are retried with backoff,
// deterministic failures and rows without an algorithm are quarantined,
// and releases are written durably to <checkpoint-dir>/artifacts/<id>.
// The service journal is the resume state: re-running the same command
// resumes at the first incomplete row. SIGINT/SIGTERM stop the in-flight
// row (an optimal row keeps its search checkpoint) and dispatch nothing
// more (exit code 3, "interrupted").
//
//   example_mdc_cli serve --state-dir <dir> [--window-capacity <n>]
//       [--tenant-budget <n>] [--quantum <n>] [--default-deadline-ms <ms>]
//       [--max-retries <n>] [--backoff-ms <ms>] [--threads <n>]
//       [--cache-bytes <n>] [--no-cache]
//
// `serve` runs the resident job service (docs/service.md): newline
// protocol on stdin/stdout (`submit <id> key=value ...`, `status`, `wait`,
// `drain`, `metrics`, `cache stats|clear`), durable job journal +
// artifacts under --state-dir, crash recovery on restart, graceful drain
// on SIGTERM/SIGINT or EOF. Jobs run through the same executor as the
// commands above. File-backed job inputs are served from a resident
// dataset cache (--cache-bytes budget, --no-cache to disable, per-job
// `cache=off` to opt one job out); artifacts and deterministic counters
// are byte-identical with the cache on or off.
//
// The MDC_FAILPOINTS environment variable arms fault-injection sites in
// any command (see common/failpoint.h) — the kill-torture harness uses it
// to crash the service inside durable-write windows.
//
// Run without arguments for a self-contained demo on the paper's Table 1.

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "anonymize/datafly.h"
#include "anonymize/mondrian.h"
#include "common/cpu_dispatch.h"
#include "common/csv.h"
#include "common/durable_io.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/run_context.h"
#include "common/strings.h"
#include "common/trace.h"
#include "core/report.h"
#include "paper/paper_data.h"
#include "service/executor.h"
#include "service/service_core.h"
#include "service/transport.h"

using namespace mdc;

namespace {

constexpr const char* kUsageHint =
    "usage: mdc_cli <anonymize|perturb|compare|batch|serve|version> "
    "--input <csv> --schema <spec> "
    "[--hierarchies <file>] [--algorithm <name>] [--algorithms <a,b,...>] "
    "[--k <n>] [--max-suppression <frac>] [--output <csv>] "
    "[--mechanism <noise|rankswap|microagg>] [--seed <n>] "
    "[--noise-scale <frac>] [--swap-window <frac>] "
    "[--deadline-ms <ms>] [--max-steps <n>] [--threads <n>] "
    "[--metrics-out <file>] [--trace-out <file>] | batch "
    "--jobs <spec.csv> --checkpoint-dir <dir> [--max-retries <n>] "
    "[--backoff-ms <ms>] | serve --state-dir <dir> "
    "[--window-capacity <n>] [--tenant-budget <n>] [--quantum <n>] "
    "[--default-deadline-ms <ms>] [--listen <unix:path|tcp:ip:port>] "
    "[--max-connections <n>] [--max-line-bytes <n>] "
    "[--net-read-deadline-ms <ms>] [--net-idle-deadline-ms <ms>] "
    "[--net-write-deadline-ms <ms>] [--cache-bytes <n>] [--no-cache]";

// Flags of the anonymize|perturb|compare commands that are job params.
constexpr const char* kJobFlags[] = {
    "input",      "schema", "hierarchies",     "algorithm",
    "algorithms", "k",      "max-suppression", "mechanism",
    "seed",       "noise-scale", "swap-window"};

// Every other flag that takes a value.
constexpr const char* kOtherFlags[] = {
    "output",          "max-steps",       "deadline-ms",
    "jobs",            "checkpoint-dir",  "max-retries",
    "backoff-ms",      "threads",         "metrics-out",
    "trace-out",       "state-dir",       "window-capacity",
    "tenant-budget",   "quantum",         "default-deadline-ms",
    "listen",          "max-connections", "max-line-bytes",
    "net-read-deadline-ms", "net-idle-deadline-ms",
    "net-write-deadline-ms", "cache-bytes"};

// Flags that take no value; parsed as present/absent.
constexpr const char* kBoolFlags[] = {"no-cache"};

// Signal plumbing shared by `batch` and `serve`: the handler records the
// signal and cancels the service core's drain token, which interrupts the
// in-flight job (its RunContext carries a copy) and stops further
// dispatch. Everything else — checkpointing, draining, the exit code —
// happens in normal control flow.
//
// The serve loop blocks in read(2) on stdin, and EINTR alone is not
// enough to wake it: a signal that lands between the g_signal check and
// the read() call would be recorded but never noticed (the classic lost
// wake-up). The handler therefore also writes one byte to a self-pipe,
// and the protocol reader poll(2)s on {stdin, self-pipe} so a pending
// signal is level-triggered rather than edge-triggered.
volatile std::sig_atomic_t g_signal = 0;
int g_wakeup_pipe[2] = {-1, -1};
CancellationToken& InterruptToken() {
  static CancellationToken token;
  return token;
}

void OnSignal(int sig) {
  g_signal = sig;
  // CancellationToken::Cancel is one relaxed store on a lock-free atomic
  // reached through a stable shared_ptr — safe from a handler here, as is
  // write(2) on the non-blocking self-pipe (errno is preserved).
  InterruptToken().Cancel();
  if (g_wakeup_pipe[1] >= 0) {
    int saved_errno = errno;
    char byte = 1;
    (void)!::write(g_wakeup_pipe[1], &byte, 1);
    errno = saved_errno;
  }
}

void InstallSignalHandlers() {
  if (g_wakeup_pipe[0] < 0) {
    if (::pipe(g_wakeup_pipe) == 0) {
      ::fcntl(g_wakeup_pipe[0], F_SETFL, O_NONBLOCK);
      ::fcntl(g_wakeup_pipe[1], F_SETFL, O_NONBLOCK);
    }
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // No SA_RESTART: blocking reads must wake.
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

struct CliArgs {
  std::string command;
  std::map<std::string, std::string> flags;
};

StatusOr<CliArgs> ParseArgs(int argc, char** argv) {
  CliArgs args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (!StartsWith(key, "--")) {
      return Status::InvalidArgument("unexpected argument '" + key + "'; " +
                                     kUsageHint);
    }
    key = key.substr(2);
    if (std::ranges::find(kBoolFlags, key) != std::end(kBoolFlags)) {
      args.flags[key] = std::string("1");
      continue;
    }
    if (std::ranges::find(kJobFlags, key) == std::end(kJobFlags) &&
        std::ranges::find(kOtherFlags, key) == std::end(kOtherFlags)) {
      return Status::InvalidArgument("unknown flag '--" + key + "'; " +
                                     kUsageHint);
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag '--" + key +
                                     "' is missing a value; " + kUsageHint);
    }
    args.flags[key] = argv[++i];
  }
  return args;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Flushes --metrics-out / --trace-out when main returns, whatever the exit
// path: command dispatch, Fail(), or success.
struct ObservabilitySinks {
  std::string metrics_path;
  std::string trace_path;

  ~ObservabilitySinks() {
    if (!metrics_path.empty()) {
      if (Status status = metrics::WriteSnapshotFile(metrics_path);
          !status.ok()) {
        std::fprintf(stderr, "warning: --metrics-out: %s\n",
                     status.ToString().c_str());
      }
    }
    if (!trace_path.empty()) {
      trace::Disable();
      if (Status status = trace::WriteChromeTrace(trace_path);
          !status.ok()) {
        std::fprintf(stderr, "warning: --trace-out: %s\n",
                     status.ToString().c_str());
      }
    }
  }
};

// Parses integer flag --<flag>, when present, into `out`. Values below
// `min` or outside T's range are InvalidArgument("bad --<flag>").
template <typename T>
Status IntFlag(const CliArgs& args, const char* flag, int64_t min, T& out) {
  auto it = args.flags.find(flag);
  if (it == args.flags.end()) return Status::Ok();
  std::optional<int64_t> parsed = ParseInt64(it->second);
  if (!parsed.has_value() || *parsed < min || !std::in_range<T>(*parsed)) {
    return Status::InvalidArgument(std::string("bad --") + flag);
  }
  out = static_cast<T>(*parsed);
  return Status::Ok();
}

// anonymize | perturb | compare: one executor job built from the flags.
int RunJobCommand(const CliArgs& args) {
  if (args.flags.count("schema") == 0 || args.flags.count("input") == 0) {
    return Fail(Status::InvalidArgument("--schema and --input are required"));
  }
  // <= 0 threads means one worker per hardware thread; results are
  // identical for any value (docs/performance.md).
  int threads = 1;
  int64_t deadline_ms = 0;
  uint64_t max_steps = 0;
  for (Status status :
       {IntFlag(args, "threads", std::numeric_limits<int64_t>::min(), threads),
        IntFlag(args, "deadline-ms", 1, deadline_ms),
        IntFlag(args, "max-steps", 1, max_steps)}) {
    if (!status.ok()) return Fail(status);
  }
  RunContext run_context;
  if (deadline_ms > 0) run_context.set_deadline_ms(deadline_ms);
  if (max_steps > 0) run_context.set_max_steps(max_steps);

  service::JobSpec spec;
  spec.kind = args.command;
  for (const char* flag : kJobFlags) {
    if (auto it = args.flags.find(flag); it != args.flags.end()) {
      std::string key = flag;
      std::replace(key.begin(), key.end(), '-', '_');
      spec.params[key] = it->second;
    }
  }
  std::string summary;
  service::ServiceCore::ExecResult result = service::ExecuteJob(
      {spec, run_context.bounded() ? &run_context : nullptr, {}, nullptr},
      threads, &summary);
  if (!result.status.ok()) return Fail(result.status);
  std::fprintf(stderr, "%s", summary.c_str());
  if (auto it = args.flags.find("output"); it != args.flags.end()) {
    // Durable: a crash mid-write leaves either the old file or the new
    // one, never a torn release.
    if (Status status = DurableWriteFile(it->second, result.artifact);
        !status.ok()) {
      return Fail(status);
    }
  } else {
    std::printf("%s", result.artifact.c_str());
  }
  return 0;
}

// batch: the jobs-file rows run on a ServiceCore over --checkpoint-dir.
int RunJobsFileCommand(const CliArgs& args) {
  auto jobs_flag = args.flags.find("jobs");
  auto dir_flag = args.flags.find("checkpoint-dir");
  if (jobs_flag == args.flags.end() || dir_flag == args.flags.end()) {
    return Fail(Status::InvalidArgument(
        "batch needs --jobs and --checkpoint-dir; " + std::string(kUsageHint)));
  }
  // Validate the checkpoint directory up front: a batch that runs for an
  // hour and then cannot persist its first checkpoint helps nobody.
  const std::string& dir = dir_flag->second;
  if (Status status = EnsureWritableDir(dir); !status.ok()) {
    return Fail(Status(status.code(),
                       "--checkpoint-dir " + dir + " is not a writable "
                       "directory: " + status.message()));
  }

  service::ServiceConfig config;
  config.state_dir = dir;
  for (Status status : {IntFlag(args, "max-retries", 0, config.max_retries),
                        IntFlag(args, "backoff-ms", 0,
                                config.backoff_base_ms)}) {
    if (!status.ok()) return Fail(status);
  }

  auto spec_or = ReadFileToString(jobs_flag->second);
  if (!spec_or.ok()) return Fail(spec_or.status());
  auto jobs_or = service::ParseJobSpecCsv(*spec_or);
  if (!jobs_or.ok()) return Fail(jobs_or.status());

  // SIGINT/SIGTERM cancel the drain token: the in-flight row stops, the
  // rest stay journaled, and re-running the same command resumes.
  config.drain_token = InterruptToken();
  InstallSignalHandlers();

  auto outcomes = service::RunJobList(
      config,
      [](const service::ServiceCore::ExecRequest& request) {
        auto algorithm = request.spec.params.find("algorithm");
        if (algorithm == request.spec.params.end() ||
            algorithm->second.empty()) {
          service::ServiceCore::ExecResult result;
          result.status = Status::InvalidArgument(
              "job " + request.spec.id + ": missing `algorithm` column");
          return result;
        }
        return service::ExecuteJob(request, 1);
      },
      *jobs_or);
  if (!outcomes.ok()) return Fail(outcomes.status());
  std::printf("%s", service::OutcomeSummary(*outcomes).c_str());
  const bool incomplete =
      service::CountState(*outcomes, service::JobState::kPending) > 0;
  if (incomplete && g_signal != 0) {
    std::fprintf(stderr,
                 "interrupted: checkpoint is durable; re-run the same "
                 "command to resume\n");
    return 3;
  }
  bool clean =
      !incomplete &&
      service::CountState(*outcomes, service::JobState::kQuarantined) == 0 &&
      service::CountState(*outcomes, service::JobState::kExhausted) == 0;
  return clean ? 0 : 1;
}

// Reads one newline-terminated line from stdin. The wait is a poll(2)
// over {stdin, signal self-pipe}: a SIGTERM that arrived at any earlier
// point left a byte in the self-pipe, so the poll returns immediately and
// the drain path runs even if the signal raced the transition into the
// blocking wait.
//
// Lines are capped at kMaxStdinLineBytes — the same frame bound the socket
// front-end enforces — so a runaway writer cannot grow the buffer without
// bound. An oversize line reports kOversize exactly once; `discarding`
// carries the skip-to-next-newline state across calls, and the dropped
// bytes never accumulate.
enum class ReadLineResult { kLine, kEof, kSignal, kOversize };
constexpr size_t kMaxStdinLineBytes = 64 * 1024;
ReadLineResult ReadProtocolLine(std::string& line, std::string& buffer,
                                bool& discarding) {
  while (true) {
    size_t pos = buffer.find('\n');
    if (discarding) {
      if (pos == std::string::npos) {
        buffer.clear();  // Still inside the oversize line: drop and keep going.
      } else {
        buffer.erase(0, pos + 1);  // The oversize line finally ended.
        discarding = false;
        continue;
      }
    } else if (pos != std::string::npos) {
      if (pos > kMaxStdinLineBytes) {
        buffer.erase(0, pos + 1);
        return ReadLineResult::kOversize;
      }
      line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      return ReadLineResult::kLine;
    } else if (buffer.size() > kMaxStdinLineBytes) {
      buffer.clear();
      buffer.shrink_to_fit();
      discarding = true;
      return ReadLineResult::kOversize;
    }
    if (g_signal != 0) return ReadLineResult::kSignal;
    struct pollfd fds[2];
    fds[0].fd = STDIN_FILENO;
    fds[0].events = POLLIN;
    fds[1].fd = g_wakeup_pipe[0];
    fds[1].events = POLLIN;
    int ready = ::poll(fds, g_wakeup_pipe[0] >= 0 ? 2 : 1, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;  // Loop re-checks g_signal.
      return ReadLineResult::kEof;
    }
    if (g_signal != 0) return ReadLineResult::kSignal;
    if (!(fds[0].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    char chunk[4096];
    ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
    if (n > 0) {
      buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EOF (or a read error, which ends the session the same way). A final
    // unterminated fragment of a discarded oversize line stays dropped.
    if (buffer.empty() || discarding) return ReadLineResult::kEof;
    line = std::move(buffer);
    buffer.clear();
    return ReadLineResult::kLine;
  }
}

void Reply(const std::string& text) {
  std::printf("%s\n", text.c_str());
  std::fflush(stdout);
}

int RunServeCommand(const CliArgs& args) {
  auto dir_flag = args.flags.find("state-dir");
  if (dir_flag == args.flags.end()) {
    return Fail(Status::InvalidArgument("serve needs --state-dir; " +
                                        std::string(kUsageHint)));
  }
  service::ServiceConfig config;
  config.state_dir = dir_flag->second;
  config.drain_token = InterruptToken();
  if (args.flags.count("no-cache") > 0) config.cache_enabled = false;
  int threads = 1;
  service::TransportConfig transport;
  const bool use_socket = args.flags.count("listen") > 0;
  if (use_socket) transport.listen = args.flags.at("listen");
  for (Status status : {
           IntFlag(args, "window-capacity", 0,
                   config.admission.window_capacity),
           IntFlag(args, "tenant-budget", 0, config.admission.tenant_budget),
           IntFlag(args, "quantum", 0, config.admission.quantum),
           IntFlag(args, "default-deadline-ms", 0,
                   config.default_deadline_ms),
           IntFlag(args, "max-retries", 0, config.max_retries),
           IntFlag(args, "backoff-ms", 0, config.backoff_base_ms),
           IntFlag(args, "cache-bytes", 0, config.cache.max_bytes),
           IntFlag(args, "threads", std::numeric_limits<int64_t>::min(),
                   threads),
           IntFlag(args, "max-connections", 1, transport.max_connections),
           IntFlag(args, "max-line-bytes", 0, transport.max_line_bytes),
           IntFlag(args, "net-read-deadline-ms", 0,
                   transport.read_deadline_ms),
           IntFlag(args, "net-idle-deadline-ms", 0,
                   transport.idle_deadline_ms),
           IntFlag(args, "net-write-deadline-ms", 0,
                   transport.write_deadline_ms)}) {
    if (!status.ok()) return Fail(status);
  }

  auto core_or = service::ServiceCore::Start(
      config, [threads](const service::ServiceCore::ExecRequest& request) {
        return service::ExecuteJob(request, threads);
      });
  if (!core_or.ok()) return Fail(core_or.status());
  service::ServiceCore& core = **core_or;
  InstallSignalHandlers();

  if (use_socket) {
    service::SocketFrontEnd front(&core, transport);
    if (Status s = front.Listen(); !s.ok()) return Fail(s);
    // Startup banner: the client driver syncs on it; `recovered` tells the
    // torture harness how many jobs survived the previous life, `listen`
    // reports the bound address (an ephemeral tcp port is resolved here).
    Reply("ready recovered=" + std::to_string(core.recovered_jobs()) +
          " listen=" + front.bound_address());
    Status drained = front.Run(g_wakeup_pipe[0], [] { return g_signal != 0; });
    if (g_signal != 0) {
      std::fprintf(stderr, "interrupted: drained after signal %d\n",
                   static_cast<int>(g_signal));
    }
    if (!drained.ok()) return Fail(drained);
    return 0;
  }

  // Startup banner: the client driver syncs on it; `recovered` tells the
  // torture harness how many jobs survived the previous life.
  Reply("ready recovered=" + std::to_string(core.recovered_jobs()));

  std::string line;
  std::string buffer;
  bool discarding = false;
  bool interrupted = false;
  while (true) {
    ReadLineResult read = ReadProtocolLine(line, buffer, discarding);
    if (read == ReadLineResult::kSignal) {
      interrupted = true;
      break;
    }
    if (read == ReadLineResult::kEof) break;
    if (read == ReadLineResult::kOversize) {
      // Same typed rejection as the socket front-end's frame bound; the
      // stdin session survives it (the oversize line was discarded).
      MDC_METRIC_INC("net.rejected.line_too_long");
      Reply(service::TransportRejectReply(
                service::TransportReject::kLineTooLong) +
            " limit=" + std::to_string(kMaxStdinLineBytes));
      continue;
    }
    // Empty command (blank line or leading space): silently ignored, as
    // this front-end always has.
    if (line.empty() || line[0] == ' ') continue;
    service::ProtocolAction action = service::HandleProtocolLine(core, line);
    switch (action.kind) {
      case service::ProtocolAction::Kind::kReply:
        Reply(action.reply);
        break;
      case service::ProtocolAction::Kind::kWaitIdle:
        core.WaitIdle();
        if (g_signal != 0) {
          interrupted = true;
        } else {
          Reply("ok wait idle");
        }
        break;
      case service::ProtocolAction::Kind::kDrain: {
        Status status = core.Drain();
        Reply(status.ok() ? "ok drain" : "err drain " + status.ToString());
        break;
      }
    }
    if (interrupted) break;
  }
  Status drained = core.Drain();
  if (interrupted) {
    std::fprintf(stderr, "interrupted: drained after signal %d\n",
                 static_cast<int>(g_signal));
  }
  if (!drained.ok()) return Fail(drained);
  return 0;
}

int Demo() {
  std::printf("no arguments: demo on the paper's Table 1\n\n");
  auto data = paper::Table1();
  MDC_CHECK(data.ok());
  auto hierarchies = paper::HierarchySetA();
  MDC_CHECK(hierarchies.ok());
  auto datafly = DataflyAnonymize(*data, *hierarchies,
                                  DataflyConfig{3, SuppressionBudget{0.0}});
  auto mondrian = MondrianAnonymize(*data, MondrianConfig{3});
  MDC_CHECK(datafly.ok());
  MDC_CHECK(mondrian.ok());
  const NodeEvaluation& released = datafly->evaluation;
  std::printf("datafly release:\n%s\n",
              released.anonymization.release.ToText().c_str());
  ComparisonOptions options;
  options.sensitive_column = paper::kMaritalColumn;
  auto report = CompareAnonymizations(
      released.anonymization, released.partition, mondrian->anonymization,
      mondrian->partition, options);
  MDC_CHECK(report.ok());
  std::printf("%s", report->ToText().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Fault-injection arming from the environment (torture harnesses pass
  // e.g. MDC_FAILPOINTS="io.rename=kill:skip=3" to child processes).
  if (const char* spec = std::getenv("MDC_FAILPOINTS");
      spec != nullptr && *spec != '\0') {
    if (Status status = failpoint::ArmFromEnvSpec(spec); !status.ok()) {
      return Fail(status);
    }
  }
  auto args_or = ParseArgs(argc, argv);
  if (!args_or.ok()) return Fail(args_or.status());
  CliArgs args = std::move(args_or).value();
  ObservabilitySinks sinks;
  if (auto it = args.flags.find("metrics-out"); it != args.flags.end()) {
    sinks.metrics_path = it->second;
  }
  if (auto it = args.flags.find("trace-out"); it != args.flags.end()) {
    sinks.trace_path = it->second;
    trace::Enable();
  }
  if (args.command == "version") {
    // `active` reflects any MDC_SIMD_LEVEL clamp; `detected` is what the
    // hardware and build support.
    std::printf("mdc_cli\nsimd_level: %s\nsimd_detected: %s\n",
                SimdLevelName(ActiveSimdLevel()),
                SimdLevelName(DetectSimdLevel()));
    return 0;
  }
  if (args.command.empty()) return Demo();
  if (args.command == "batch") return RunJobsFileCommand(args);
  if (args.command == "serve") return RunServeCommand(args);
  if (args.command == "anonymize" || args.command == "perturb" ||
      args.command == "compare") {
    return RunJobCommand(args);
  }
  return Fail(Status::InvalidArgument(
      "unknown command '" + args.command +
      "' (anonymize|perturb|compare|batch|serve)"));
}
