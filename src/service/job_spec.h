// Job specifications and outcomes for the resident mdcd service.
//
// A JobSpec is one unit of client work — an anonymize / compare / report
// request — carrying a tenant label for fair scheduling, a scheduling cost,
// and the client's execution budgets (deadline, step cap), which the
// service propagates into the job's RunContext. Specs arrive over the
// newline-delimited wire protocol (`submit <id> key=value ...`, see
// docs/service.md) or as rows of a jobs CSV (`mdc_cli batch`), and are
// journaled durably (snapshot kind kServiceJob) before the submit is
// acknowledged, so a crash can never lose an accepted job. Terminal
// outcomes are recorded the same way (kServiceOutcome).
//
// Supervision vocabulary shared by the service worker and the socket
// client also lives here: the JobState taxonomy, the transient-status
// classification that decides retry vs quarantine, and the one backoff
// law every retry loop uses.

#ifndef MDC_SERVICE_JOB_SPEC_H_
#define MDC_SERVICE_JOB_SPEC_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mdc::service {

struct JobSpec {
  std::string id;                // Unique across the service; resume key.
  std::string tenant = "default";
  std::string kind = "anonymize";  // anonymize | perturb | compare | report.
  uint64_t cost = 1;             // Deficit-round-robin scheduling units.
  int64_t deadline_ms = 0;       // Client deadline; 0 = unbounded.
  uint64_t max_steps = 0;        // Client step budget; 0 = unbounded.
  // Opaque key=value parameters interpreted by the executor (algorithm,
  // dataset, k, ...).
  std::map<std::string, std::string> params;
};

enum class JobState : uint32_t {
  kPending = 0,      // Not terminal yet (queued, interrupted, never run).
  kOk = 1,           // Executor returned OK with no budget expiry.
  kTruncated = 2,    // Executor returned OK but degraded to best-so-far.
  kQuarantined = 3,  // Deterministic failure; retrying cannot help.
  kExhausted = 4,    // Transient failure persisted through every retry.
};

// Stable name for reports ("ok", "quarantined", ...).
std::string JobStateName(JobState state);

struct JobOutcome {
  std::string id;
  JobState state = JobState::kPending;
  uint32_t attempts = 0;   // Executor invocations (1 = no retry needed).
  // Last failure message, or the expired budget of a truncated job;
  // empty when ok.
  std::string message;
};

// Per-job outcome table plus a totals line ("totals: ok=2 truncated=0
// ..."), suffixed " (aborted)" while any job is still pending.
std::string OutcomeSummary(const std::vector<JobOutcome>& outcomes);
size_t CountState(const std::vector<JobOutcome>& outcomes, JobState state);

// A status worth retrying: budget expiry from an over-tight deadline or
// step budget, and internal errors (I/O flakes). Everything else is
// deterministic and quarantines the job; kCancelled is neither — it is a
// drain interrupting the attempt.
bool IsTransientStatus(const Status& status);

// Retry-delay stream for one job's (or one request's) attempts: bounded
// decorrelated jitter. Each delay is drawn uniformly from
// [base, min(max, 3 * previous delay)], which keeps the exponential
// envelope but desynchronizes concurrent retry loops so they cannot form a
// synchronized retry storm. The draw stream is seeded from seed XOR salt,
// so delays are reproducible for a fixed config. Jitter affects only sleep
// durations: retry counters are charged at attempt commit points, never
// from timing.
class BackoffSequence {
 public:
  // `salt` decorrelates streams (callers pass a BackoffSalt of the job id
  // or request line).
  BackoffSequence(int64_t base_ms, int64_t max_ms, uint64_t seed,
                  uint64_t salt);

  // Delay before the next retry; within [base_ms, max_ms], or always 0
  // when base_ms <= 0.
  int64_t NextDelayMs();

 private:
  int64_t base_ms_;
  int64_t max_ms_;
  uint64_t rng_state_;
  int64_t prev_ms_;
};

// FNV-1a over `text`; the salt BackoffSequence callers derive from a job
// id so per-job delay streams differ even under one seed.
uint64_t BackoffSalt(std::string_view text);

// True when `text` is non-empty, uses only [A-Za-z0-9_.-], and is not `.`
// or `..`: ids and tenants become file names and protocol tokens, so they
// must be safe for both.
bool IsValidToken(std::string_view text);

// Parses the payload of a `submit` protocol line: "<id> key=value ...".
// Reserved keys tenant / kind / cost / deadline_ms / max_steps fill the
// typed fields; everything else lands in params. Rejects malformed tokens,
// unknown kinds, and non-positive cost with a clean status.
StatusOr<JobSpec> ParseSubmitSpec(std::string_view text);

// Parses a jobs CSV (`mdc_cli batch --jobs`) into specs of the default
// kind. The first row is a header and must contain an `id` column; every
// id must pass IsValidToken and be unique. `deadline_ms` and `max_steps`
// columns (optional) become the per-attempt budgets; every other column
// becomes a params entry. Errors name the offending row.
StatusOr<std::vector<JobSpec>> ParseJobSpecCsv(std::string_view text);

// Durable journal record: the spec plus its admission sequence number
// (recovery re-queues incomplete jobs in admission order).
std::string SerializeJobSpec(const JobSpec& spec, uint64_t seq);

struct JobRecord {
  JobSpec spec;
  uint64_t seq = 0;
};
StatusOr<JobRecord> DeserializeJobSpec(std::string_view bytes);

// Terminal outcome record.
std::string SerializeOutcome(const JobOutcome& outcome);
StatusOr<JobOutcome> DeserializeOutcome(std::string_view bytes);

}  // namespace mdc::service

#endif  // MDC_SERVICE_JOB_SPEC_H_
