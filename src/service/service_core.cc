#include "service/service_core.h"

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <utility>

#include "common/csv.h"
#include "common/durable_io.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace mdc::service {
namespace {

// Retry delays: BackoffSequence from ServiceConfig::backoff_base_ms up to
// this cap, one fixed stream seed (each job's id salts its own stream).
constexpr int64_t kBackoffMaxMs = 1000;
constexpr uint64_t kBackoffSeed = 0;

// Budget codes mean "interrupted", not "failed": the attempt may leave a
// checkpoint and the job stays incomplete.
bool IsInterruption(const Status& status) {
  return status.code() == StatusCode::kCancelled ||
         status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kResourceExhausted;
}

// Names in `dir` with suffix `suffix` (stripped), sorted for determinism.
// With `remove_tmp`, stray "*.tmp" leftovers from a hard kill mid-
// DurableWriteFile are removed — the rename never happened, so they are
// dead bytes.
StatusOr<std::vector<std::string>> ListDir(const std::string& dir,
                                           std::string_view suffix,
                                           bool remove_tmp = true) {
  DIR* handle = opendir(dir.c_str());
  if (handle == nullptr) {
    return ErrnoToStatus(errno, "opendir " + dir);
  }
  std::vector<std::string> names;
  while (dirent* entry = readdir(handle)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    if (remove_tmp && name.size() >= 4 &&
        name.substr(name.size() - 4) == ".tmp") {
      std::remove((dir + "/" + name).c_str());
      continue;
    }
    if (name.size() < suffix.size() ||
        name.substr(name.size() - suffix.size()) != suffix) {
      continue;
    }
    names.push_back(name.substr(0, name.size() - suffix.size()));
  }
  closedir(handle);
  std::sort(names.begin(), names.end());
  return names;
}

std::string FormatSeq(uint64_t seq) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%012llu",
                static_cast<unsigned long long>(seq));
  return buffer;
}

// Moves a rotted record out of the replay set (rename to <path>.corrupt)
// so recovery can continue past it. The bytes are preserved for forensics;
// only the rename failing is fatal, since leaving the record in place
// would re-corrupt the next recovery too.
Status QuarantineRecord(const std::string& path) {
  const std::string target = path + ".corrupt";
  std::remove(target.c_str());  // A previous life may have quarantined one.
  if (std::rename(path.c_str(), target.c_str()) != 0) {
    return ErrnoToStatus(errno, "quarantine rename " + path);
  }
  MDC_METRIC_INC("svc.recovery.quarantined");
  return Status::Ok();
}

}  // namespace

std::string ServiceStats::ToString() const {
  return "queued=" + std::to_string(queued) +
         " running=" + std::to_string(running) +
         " done=" + std::to_string(completed) +
         " submitted=" + std::to_string(submitted) +
         " admitted=" + std::to_string(admitted) +
         " shed=" + std::to_string(shed) +
         " duplicates=" + std::to_string(duplicates) +
         " recovered=" + std::to_string(recovered);
}

ServiceCore::ServiceCore(ServiceConfig config, Executor executor)
    : config_(std::move(config)),
      executor_(std::move(executor)),
      drain_token_(config_.drain_token),
      cache_(config_.cache_enabled
                 ? std::make_unique<DatasetCache>(config_.cache)
                 : nullptr),
      queue_(config_.admission) {}

ServiceCore::~ServiceCore() { (void)Drain(); }

std::string ServiceCore::JobPath(uint64_t seq, const std::string& id) const {
  return config_.state_dir + "/jobs/" + FormatSeq(seq) + "-" + id + ".job";
}
std::string ServiceCore::DonePath(const std::string& id) const {
  return config_.state_dir + "/done/" + id + ".done";
}
std::string ServiceCore::CkptPath(const std::string& id) const {
  return config_.state_dir + "/ckpt/" + id + ".ckpt";
}
std::string ServiceCore::ArtifactPath(const std::string& id) const {
  return config_.state_dir + "/artifacts/" + id;
}

StatusOr<std::unique_ptr<ServiceCore>> ServiceCore::Start(
    ServiceConfig config, Executor executor) {
  if (config.state_dir.empty()) {
    return Status::InvalidArgument("service: state_dir must be set");
  }
  if (executor == nullptr) {
    return Status::InvalidArgument("service: executor must be set");
  }
  if (config.max_retries < 0) {
    return Status::InvalidArgument("service: max_retries must be >= 0");
  }
  MDC_RETURN_IF_ERROR(EnsureWritableDir(config.state_dir));
  for (const char* sub : {"/jobs", "/done", "/ckpt", "/artifacts"}) {
    MDC_RETURN_IF_ERROR(EnsureWritableDir(config.state_dir + sub));
  }
  std::unique_ptr<ServiceCore> core(
      new ServiceCore(std::move(config), std::move(executor)));
  MDC_RETURN_IF_ERROR(core->Recover());
  core->worker_ = std::thread([raw = core.get()] { raw->WorkerLoop(); });
  return core;
}

Status ServiceCore::Recover() {
  // Done records first: they decide which journaled jobs are incomplete.
  MDC_ASSIGN_OR_RETURN(std::vector<std::string> done_ids,
                       ListDir(config_.state_dir + "/done", ".done"));
  for (const std::string& id : done_ids) {
    MDC_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(DonePath(id)));
    auto outcome = DeserializeOutcome(bytes);
    if (!outcome.ok() || outcome->id != id) {
      // Truncated / CRC-failing / mismatched done record: quarantine it.
      // The job now looks incomplete and re-runs; the executor is
      // deterministic, so the regenerated artifact and done record are
      // byte-identical to the lost ones.
      MDC_RETURN_IF_ERROR(QuarantineRecord(DonePath(id)));
      ++quarantined_;
      continue;
    }
    completed_[id] = std::move(*outcome);
  }
  MDC_ASSIGN_OR_RETURN(std::vector<std::string> job_files,
                       ListDir(config_.state_dir + "/jobs", ".job"));
  std::vector<JobRecord> incomplete;
  for (const std::string& stem : job_files) {
    const std::string path = config_.state_dir + "/jobs/" + stem + ".job";
    MDC_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
    auto record = DeserializeJobSpec(bytes);
    if (!record.ok()) {
      // A rotted journal record cannot be replayed, but it must not take
      // down the healthy jobs around it: quarantine and continue.
      MDC_RETURN_IF_ERROR(QuarantineRecord(path));
      ++quarantined_;
      continue;
    }
    next_seq_ = std::max(next_seq_, record->seq + 1);
    if (completed_.count(record->spec.id) == 0) {
      incomplete.push_back(std::move(*record));
    }
  }
  // File names sort by zero-padded seq, but trust the records, not the
  // directory: re-queue in admission order.
  std::sort(incomplete.begin(), incomplete.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.seq < b.seq; });
  for (const JobRecord& record : incomplete) {
    queue_.Requeue(record.spec);
    MDC_METRIC_INC("svc.recovered");
  }
  recovered_ = incomplete.size();
  stats_.recovered = incomplete.size();
  // Recovery is a client-visible barrier (the process restarted): the
  // admission window opens fresh, charged with the re-queued backlog.
  return Status::Ok();
}

StatusOr<AdmitDecision> ServiceCore::Submit(const JobSpec& spec) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.submitted;
  MDC_METRIC_INC("svc.submitted");
  // A finished or in-flight job with the same id is a duplicate even
  // though it is no longer queued: ids are resume keys, not reusable.
  if (!spec.id.empty() &&
      (completed_.count(spec.id) != 0 || running_id_ == spec.id)) {
    ++stats_.duplicates;
    MDC_METRIC_INC("svc.shed.duplicate_id");
    return AdmitDecision::kDuplicateId;
  }
  AdmitDecision decision = queue_.Admit(spec);
  if (decision != AdmitDecision::kAdmitted) {
    if (IsOverloaded(decision)) {
      ++stats_.shed;
    } else if (decision == AdmitDecision::kDuplicateId) {
      ++stats_.duplicates;
    }
    // Dynamic name: the MDC_METRIC_* macros intern per call site, which
    // would freeze the first decision's name — go through the registry.
    metrics::GetCounter(std::string("svc.shed.") + AdmitDecisionName(decision))
        .Increment(1);
    return decision;
  }
  // Journal before acknowledging; the queue entry is memory-only until the
  // record is durable. On journal failure the admission is rolled back by
  // dequeuing the job we just queued (it is the only change).
  uint64_t seq = next_seq_++;
  Status journal = DurableWriteFile(JobPath(seq, spec.id),
                                    SerializeJobSpec(spec, seq));
  if (!journal.ok()) {
    // Roll back: drain the queue copy-free by removing this spec. The job
    // was just admitted, so it is its tenant's newest entry.
    queue_.Abandon(spec);
    --next_seq_;
    return journal;
  }
  ++stats_.admitted;
  MDC_METRIC_INC("svc.admitted");
  lock.unlock();
  work_cv_.notify_one();
  return AdmitDecision::kAdmitted;
}

bool ServiceCore::SettledLocked() const {
  // After a drain starts nothing more is dispatched, so the queue no
  // longer counts: settled means the in-flight job has stopped.
  return running_id_.empty() &&
         (queue_.queued() == 0 || drain_token_.cancelled());
}

void ServiceCore::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return SettledLocked() || stop_worker_; });
  // Client-visible barrier: the window resets here and only here (plus
  // start/drain), keeping shed decisions a pure function of arrival order.
  queue_.ResetWindow();
  MDC_METRIC_INC("svc.window_resets");
}

bool ServiceCore::Idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.queued() == 0 && running_id_.empty();
}

void ServiceCore::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock,
                  [this] { return stop_worker_ || queue_.queued() > 0; });
    if (stop_worker_) return;  // Drain: leave queued jobs journaled.
    if (drain_token_.cancelled()) {
      // A drain has started (possibly from a signal handler, which cannot
      // notify): dispatch nothing more, release WaitIdle, and park until
      // Drain() stops the worker. Queued jobs stay journaled.
      idle_cv_.notify_all();
      work_cv_.wait(lock, [this] { return stop_worker_; });
      return;
    }
    std::optional<JobSpec> job = queue_.Dequeue();
    if (!job.has_value()) continue;
    running_id_ = job->id;
    lock.unlock();
    ExecuteJob(*job);
    lock.lock();
    running_id_.clear();
    if (SettledLocked()) idle_cv_.notify_all();
  }
}

void ServiceCore::ExecuteJob(const JobSpec& spec) {
  // Resume bytes from a drain of a previous attempt or process life.
  std::string checkpoint;
  {
    StatusOr<std::string> bytes = ReadFileToString(CkptPath(spec.id));
    if (bytes.ok()) {
      checkpoint = std::move(bytes).value();
      MDC_METRIC_INC("svc.resumed_from_checkpoint");
    }
  }
  BackoffSequence backoff(config_.backoff_base_ms, kBackoffMaxMs,
                          kBackoffSeed, BackoffSalt(spec.id));
  JobOutcome outcome;
  outcome.id = spec.id;
  while (true) {
    ++outcome.attempts;
    MDC_METRIC_INC("svc.attempts");
    if (outcome.attempts > 1) MDC_METRIC_INC("svc.retries");
    RunContext run;
    int64_t deadline =
        spec.deadline_ms > 0 ? spec.deadline_ms : config_.default_deadline_ms;
    if (deadline > 0) run.set_deadline_ms(deadline);
    if (spec.max_steps > 0) run.set_max_steps(spec.max_steps);
    run.set_cancellation(drain_token_);
    // Pre-attempt injection point: torture runs arm "svc.execute" to
    // exercise the retry/quarantine paths without a failing executor.
    ExecResult result;
    if (Status injected = MDC_FAILPOINT_STATUS("svc.execute");
        !injected.ok()) {
      result.status = std::move(injected);
    } else {
      result = executor_({spec, &run, checkpoint, cache_.get()});
    }

    if (drain_token_.cancelled() ||
        result.status.code() == StatusCode::kCancelled) {
      // Drain interrupted the attempt: persist whatever resumable state it
      // captured and leave the job incomplete for the next process life.
      if (!result.checkpoint.empty()) {
        if (DurableWriteFile(CkptPath(spec.id), result.checkpoint).ok()) {
          MDC_METRIC_INC("svc.checkpoints_saved");
        }
      }
      MDC_METRIC_INC("svc.interrupted");
      return;
    }

    Status terminal = result.status;
    if (terminal.ok()) {
      bool truncated = result.truncated || !run.exhausted().ok();
      outcome.state = truncated ? JobState::kTruncated : JobState::kOk;
      outcome.message = truncated ? run.exhausted().message() : "";
      terminal = PersistCompletion(spec, outcome, result.artifact);
      if (terminal.ok()) {
        MDC_METRIC_INC(truncated ? "svc.jobs.truncated" : "svc.jobs.ok");
        break;
      }
      // Fall through: the persist failure classifies like any attempt
      // failure (transient I/O retries, deterministic quarantines).
    } else if (IsInterruption(terminal)) {
      // The job's own budget expired without a best-so-far result:
      // transient (the deadline was wall-clock) until retries exhaust.
      if (!result.checkpoint.empty()) {
        (void)DurableWriteFile(CkptPath(spec.id), result.checkpoint);
        checkpoint = result.checkpoint;
      }
    }

    if (IsTransientStatus(terminal) || IsInterruption(terminal)) {
      if (outcome.attempts <= static_cast<uint32_t>(config_.max_retries)) {
        int64_t delay = backoff.NextDelayMs();
        if (delay > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        }
        continue;
      }
      outcome.state = JobState::kExhausted;
      outcome.message = terminal.message();
      MDC_METRIC_INC("svc.jobs.exhausted");
    } else {
      outcome.state = JobState::kQuarantined;
      outcome.message = terminal.message();
      MDC_METRIC_INC("svc.jobs.quarantined");
    }
    // Terminal failure: record it durably. If even that write fails the
    // job simply stays incomplete (at-least-once; it re-runs on restart).
    if (!PersistCompletion(spec, outcome, /*artifact=*/"").ok()) {
      MDC_METRIC_INC("svc.persist_failures");
      return;
    }
    break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  completed_[spec.id] = outcome;
  outcomes_.push_back(outcome);
  ++stats_.completed;
  MDC_METRIC_INC("svc.completed");
}

Status ServiceCore::PersistCompletion(const JobSpec& spec,
                                      const JobOutcome& outcome,
                                      std::string_view artifact) {
  // Artifact first, done record second: a crash between the two re-runs
  // the job, which deterministically rewrites the identical artifact. The
  // reverse order could mark a job done whose artifact never landed.
  if (outcome.state == JobState::kOk || outcome.state == JobState::kTruncated) {
    MDC_RETURN_IF_ERROR(DurableWriteFile(ArtifactPath(spec.id), artifact));
  }
  MDC_RETURN_IF_ERROR(
      DurableWriteFile(DonePath(spec.id), SerializeOutcome(outcome)));
  // The checkpoint is now stale; its absence is fine on the next scan.
  std::remove(CkptPath(spec.id).c_str());
  return Status::Ok();
}

Status ServiceCore::Drain() {
  // Serialized end to end so a second caller observes the final status,
  // never a drain still in flight.
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (drained_) return drain_status_;
    drained_ = true;
    queue_.CloseForDrain();
    stop_worker_ = true;
    MDC_METRIC_INC("svc.drains");
  }
  // Interrupt the in-flight job (its RunContext carries this token), wake
  // the worker, and wait for it to checkpoint and exit.
  drain_token_.Cancel();
  work_cv_.notify_all();
  idle_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  // Flush observability state durably: the full snapshot for humans, the
  // deterministic counters for the invariance tests.
  Status status =
      metrics::WriteSnapshotFile(config_.state_dir + "/metrics.json");
  Status counters =
      DurableWriteFile(config_.state_dir + "/counters.txt",
                       metrics::Snapshot().DeterministicCountersText());
  if (status.ok()) status = counters;
  std::lock_guard<std::mutex> lock(mu_);
  drain_status_ = status;
  return drain_status_;
}

ServiceStats ServiceCore::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats stats = stats_;
  stats.queued = queue_.queued();
  stats.running = running_id_.empty() ? 0 : 1;
  return stats;
}

std::vector<JobOutcome> ServiceCore::Outcomes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outcomes_;
}

std::optional<JobOutcome> ServiceCore::OutcomeOf(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = completed_.find(id);
  if (it == completed_.end()) return std::nullopt;
  return it->second;
}

StatusOr<std::vector<std::string>> ServiceCore::JournaledIds(
    const std::string& state_dir) {
  const std::string dir = state_dir + "/jobs";
  StatusOr<std::vector<std::string>> stems =
      ListDir(dir, ".job", /*remove_tmp=*/false);
  if (!stems.ok()) {
    if (stems.status().code() == StatusCode::kNotFound) {
      return std::vector<std::string>{};  // Fresh state dir.
    }
    return stems.status();
  }
  std::vector<std::string> ids;
  for (const std::string& stem : *stems) {
    MDC_ASSIGN_OR_RETURN(std::string bytes,
                         ReadFileToString(dir + "/" + stem + ".job"));
    if (auto record = DeserializeJobSpec(bytes); record.ok()) {
      ids.push_back(record->spec.id);
    }
  }
  return ids;
}

size_t ServiceCore::recovered_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovered_;
}

StatusOr<std::vector<JobOutcome>> RunJobList(ServiceConfig config,
                                             ServiceCore::Executor executor,
                                             const std::vector<JobSpec>& jobs) {
  std::set<std::string> ids;
  uint64_t cost = 0;
  for (const JobSpec& spec : jobs) {
    if (!IsValidToken(spec.id)) {
      return Status::InvalidArgument("job list: invalid id '" + spec.id +
                                     "'");
    }
    if (!ids.insert(spec.id).second) {
      return Status::InvalidArgument("job list: duplicate id " + spec.id);
    }
    cost += spec.cost;
  }
  // A state dir written for one job list must not silently apply to
  // another: refuse before any job runs.
  MDC_ASSIGN_OR_RETURN(std::vector<std::string> journaled,
                       ServiceCore::JournaledIds(config.state_dir));
  for (const std::string& id : journaled) {
    if (ids.count(id) == 0) {
      return Status::InvalidArgument(
          "state dir " + config.state_dir + ": unknown job id " + id +
          " (job list changed since the directory was written?)");
    }
  }
  config.admission.window_capacity = cost;
  MDC_ASSIGN_OR_RETURN(
      std::unique_ptr<ServiceCore> core,
      ServiceCore::Start(std::move(config), std::move(executor)));
  for (const JobSpec& spec : jobs) {
    MDC_ASSIGN_OR_RETURN(AdmitDecision decision, core->Submit(spec));
    // duplicate_id: journaled by an earlier life — done, or re-queued by
    // recovery ahead of every new row, so the list keeps its order.
    if (decision != AdmitDecision::kAdmitted &&
        decision != AdmitDecision::kDuplicateId) {
      return Status::Internal("job " + spec.id + ": admission " +
                              AdmitDecisionName(decision));
    }
  }
  core->WaitIdle();
  MDC_RETURN_IF_ERROR(core->Drain());
  std::vector<JobOutcome> outcomes;
  outcomes.reserve(jobs.size());
  for (const JobSpec& spec : jobs) {
    JobOutcome pending;
    pending.id = spec.id;
    outcomes.push_back(core->OutcomeOf(spec.id).value_or(pending));
  }
  return outcomes;
}

}  // namespace mdc::service
