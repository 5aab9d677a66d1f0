// Resident, overload-resilient job-service core (`mdcd`) — the one
// supervised-execution engine behind `mdc_cli serve`, `mdc_cli batch` and
// the EXT-A release export.
//
// Clients submit JobSpecs, a bounded multi-tenant admission queue decides
// deterministically whether to accept or shed each one (see admission.h),
// and a worker executes admitted jobs in deficit-round-robin order under a
// fresh RunContext carrying the client's deadline/step budgets. Transient
// failures retry with bounded decorrelated-jitter backoff, deterministic
// failures quarantine (job_spec.h), and every state transition that must
// survive a crash is durable:
//
//   state_dir/jobs/<seq>-<id>.job   journal record, written before a
//                                   submit is acknowledged
//   state_dir/artifacts/<id>        the job's result, temp+fsync+rename
//   state_dir/done/<id>.done        terminal outcome, written after the
//                                   artifact
//   state_dir/ckpt/<id>.ckpt        in-flight search state captured on
//                                   graceful drain (Checkpointable hooks)
//
// The ordering (journal -> artifact -> done) makes restart-equals-
// uninterrupted recovery a rescan: every journaled job without a done
// record is incomplete and re-enters the queue in admission order, resuming
// from its checkpoint when one exists. Because executors are deterministic
// functions of the spec (and checkpoint resume is proven equal to an
// uninterrupted run), recovered artifacts are byte-identical to a run that
// was never killed — the kill-torture harness (tests/service_torture_test)
// asserts exactly that across randomized SIGKILL points.
//
// Graceful drain (SIGTERM in the CLI): once the drain token is cancelled
// the worker dispatches nothing more and WaitIdle returns; Drain() then
// stops admitting (typed kDraining rejections), persists the checkpoint
// the interrupted job captured, flushes the mdc::metrics snapshot, and
// returns with all state durable.
//
// All svc.* counters are charged at submit/commit points under the core
// mutex, so for a fixed submission script they are byte-identical across
// algorithm thread counts (the deterministic-counter contract).

#ifndef MDC_SERVICE_SERVICE_CORE_H_
#define MDC_SERVICE_SERVICE_CORE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "service/admission.h"
#include "service/dataset_cache.h"
#include "service/job_spec.h"

namespace mdc::service {

struct ServiceConfig {
  std::string state_dir;  // Created (one level) if missing.
  AdmissionConfig admission;
  // Retry policy for transient failures: up to max_retries retries after
  // the first attempt, delays from BackoffSequence starting at
  // backoff_base_ms (0 = retry at once) and capped at one second.
  int max_retries = 2;
  int64_t backoff_base_ms = 10;
  // Deadline applied to jobs that do not carry their own; 0 = unbounded.
  int64_t default_deadline_ms = 0;
  // Resident dataset cache (docs/service.md): file-backed job inputs are
  // loaded + dictionary-encoded once and served across jobs. Memory-only —
  // recovery never trusts it; artifacts are byte-identical either way.
  bool cache_enabled = true;
  DatasetCacheConfig cache;
  // Shared drain token: copies share one flag, so a signal handler can
  // Cancel() its copy to interrupt the in-flight job before the normal
  // control flow reaches Drain().
  CancellationToken drain_token;
};

struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;        // Typed overload rejections.
  uint64_t duplicates = 0;
  uint64_t recovered = 0;   // Incomplete jobs re-queued at start.
  uint64_t completed = 0;   // Terminal outcomes this process life.
  uint64_t queued = 0;
  uint64_t running = 0;     // 0 or 1 (single dispatch worker).

  // "queued=0 running=0 done=3 shed=1 ..." — the protocol status line.
  std::string ToString() const;
};

class ServiceCore {
 public:
  // One executor invocation = one attempt at one job.
  struct ExecRequest {
    const JobSpec& spec;
    RunContext* run;  // Budgets + drain cancellation already applied.
    // Checkpoint bytes saved by an earlier interrupted attempt; empty on a
    // fresh start. Executors that support Checkpointable resume restart
    // the search here.
    std::string_view resume_checkpoint;
    // Resident dataset cache, or null when disabled (--no-cache).
    // Executors resolve file-backed inputs through it; using it is an
    // optimization only — artifacts must not depend on it.
    DatasetCache* cache = nullptr;
  };
  struct ExecResult {
    // OK: `artifact` is the job's result. Budget code: the attempt was
    // interrupted (drain or the job's own budget) — `checkpoint`, when
    // non-empty, resumes it. Other codes classify the failure
    // (IsTransientStatus decides retry vs quarantine).
    Status status;
    std::string artifact;
    std::string checkpoint;
    bool truncated = false;  // OK result degraded to best-so-far.
  };
  using Executor = std::function<ExecResult(const ExecRequest&)>;

  // Validates the config (an executor, max_retries >= 0), creates the
  // state directory, replays the journal (recovery), and starts the
  // dispatch worker. A corrupt (truncated / CRC-failing) journal or
  // outcome record is quarantined — renamed to <file>.corrupt and counted
  // under svc.recovery.quarantined — rather than aborting recovery:
  // executors are deterministic, so re-running a job whose done record
  // was lost to corruption reproduces the identical artifact, while one
  // rotted record must not take down every healthy job beside it. I/O
  // failures reading the state directory remain hard errors. Stray *.tmp
  // files from a previous hard kill are removed.
  static StatusOr<std::unique_ptr<ServiceCore>> Start(ServiceConfig config,
                                                      Executor executor);
  ~ServiceCore();  // Implies Drain().

  ServiceCore(const ServiceCore&) = delete;
  ServiceCore& operator=(const ServiceCore&) = delete;

  // Admission: journal-then-queue. The decision is deterministic for a
  // fixed arrival order (see admission.h); an accepted job is durable
  // before this returns. Only journal I/O failures are Status errors.
  StatusOr<AdmitDecision> Submit(const JobSpec& spec);

  // Blocks until every admitted job is terminal — or, once the drain token
  // is cancelled, until the in-flight job has stopped — then closes the
  // admission window (the client-visible barrier that resets budgets).
  void WaitIdle();

  // Non-blocking idleness probe: true when nothing is queued or running.
  // The socket front-end polls this so a `wait` request never blocks the
  // event loop; on true it calls WaitIdle() for the window-reset barrier,
  // which returns immediately (only the event loop submits). A drain in
  // progress does not make a backlog idle: the front-end answers its
  // waiters with a draining rejection instead.
  bool Idle() const;

  // Graceful drain: stop admitting, checkpoint the in-flight job, stop
  // the worker, flush metrics.json + counters.txt durably. Idempotent;
  // queued jobs stay journaled for the next process life.
  Status Drain();

  ServiceStats GetStats() const;
  // Terminal outcomes of this process life, in completion order.
  std::vector<JobOutcome> Outcomes() const;
  // The terminal outcome of `id`, from this life or a done record of an
  // earlier one; nullopt while the job is incomplete or unknown.
  std::optional<JobOutcome> OutcomeOf(const std::string& id) const;
  // Ids of every job journaled in `state_dir`, complete or not, read
  // without starting a service (empty for a fresh directory). Corrupt
  // records are skipped; Start() quarantines them.
  static StatusOr<std::vector<std::string>> JournaledIds(
      const std::string& state_dir);
  size_t recovered_jobs() const;
  // Corrupt records renamed to *.corrupt during this life's recovery.
  size_t quarantined_records() const { return quarantined_; }

  // Cancelled when drain starts; signal handlers use it to interrupt the
  // in-flight job before calling Drain() from a normal context.
  CancellationToken drain_token() const { return drain_token_; }

  // The resident dataset cache; null when ServiceConfig::cache_enabled is
  // false. Thread-safe for stats/clear from the front-end event loop
  // while the worker resolves through it.
  DatasetCache* cache() const { return cache_.get(); }

 private:
  ServiceCore(ServiceConfig config, Executor executor);

  Status Recover();                 // Journal replay; call before worker.
  // Nothing running and nothing more to dispatch (the queue is empty or
  // a drain has begun): what WaitIdle waits for. Requires mu_.
  bool SettledLocked() const;
  void WorkerLoop();
  void ExecuteJob(const JobSpec& spec);
  // Artifact then done record, both durable; any failure is returned for
  // transient/deterministic classification by the attempt loop.
  Status PersistCompletion(const JobSpec& spec, const JobOutcome& outcome,
                           std::string_view artifact);

  std::string JobPath(uint64_t seq, const std::string& id) const;
  std::string DonePath(const std::string& id) const;
  std::string CkptPath(const std::string& id) const;
  std::string ArtifactPath(const std::string& id) const;

  const ServiceConfig config_;
  const Executor executor_;
  CancellationToken drain_token_;
  std::unique_ptr<DatasetCache> cache_;

  std::mutex drain_mu_;  // Serializes Drain() end to end.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // Worker wakeups.
  std::condition_variable idle_cv_;   // WaitIdle wakeups.
  AdmissionQueue queue_;
  std::map<std::string, JobOutcome> completed_;  // All known done records.
  std::vector<JobOutcome> outcomes_;  // This life, completion order.
  std::string running_id_;
  uint64_t next_seq_ = 1;
  size_t recovered_ = 0;
  size_t quarantined_ = 0;
  ServiceStats stats_;
  bool stop_worker_ = false;
  bool drained_ = false;
  Status drain_status_;

  std::thread worker_;  // Started last, joined in Drain().
};

// The batch front ends (`mdc_cli batch`, the EXT-A release export): runs
// `jobs` on a ServiceCore over `config.state_dir` — submit every job with
// the admission window sized to fit them all, wait until idle, drain — and
// returns one outcome per job in job order, read from the done records
// (kPending for a job a drain left incomplete). Rerunning the same list on
// the same directory resumes: recovery re-queues the incomplete jobs and
// the finished ones answer duplicate_id. Ids must be valid and unique, and
// a directory that journals an id outside `jobs` is refused before
// anything runs.
StatusOr<std::vector<JobOutcome>> RunJobList(ServiceConfig config,
                                             ServiceCore::Executor executor,
                                             const std::vector<JobSpec>& jobs);

}  // namespace mdc::service

#endif  // MDC_SERVICE_SERVICE_CORE_H_
