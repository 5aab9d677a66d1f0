// ServiceCore unit coverage: deterministic admission-window shedding,
// deficit-round-robin fairness, tenant budgets, typed rejections, retry
// supervision and its backoff law, graceful drain with checkpoint capture,
// journal-replay crash recovery, the jobs-CSV parser, and the batch
// sequence (RunJobList: poisoned/flaky rows, kill then resume, replay of
// terminal outcomes) — all in-process with instrumented executors. The
// process-level SIGTERM/SIGKILL proofs live in service_drain_test.cc and
// service_torture_test.cc.

#include "service/service_core.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "service/admission.h"
#include "service/job_spec.h"

namespace mdc::service {
namespace {

std::string FreshStateDir(const std::string& tag) {
  static int counter = 0;
  return "/tmp/mdc_service_core_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(counter++);
}

JobSpec Spec(const std::string& id, const std::string& tenant = "default",
             uint64_t cost = 1) {
  JobSpec spec;
  spec.id = id;
  spec.tenant = tenant;
  spec.cost = cost;
  return spec;
}

// Executor that records execution order and returns a per-job artifact.
struct RecordingExecutor {
  std::mutex mu;
  std::vector<std::string> order;
  std::chrono::milliseconds delay{0};

  ServiceCore::Executor AsExecutor() {
    return [this](const ServiceCore::ExecRequest& request) {
      if (delay.count() > 0) std::this_thread::sleep_for(delay);
      {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(request.spec.id);
      }
      ServiceCore::ExecResult result;
      result.artifact = "artifact for " + request.spec.id + "\n";
      return result;
    };
  }
};

TEST(JobSpecTest, ParsesSubmitPayload) {
  auto spec = ParseSubmitSpec("j1 tenant=acme kind=compare cost=4 "
                              "deadline_ms=250 max_steps=9 algorithm=datafly");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->id, "j1");
  EXPECT_EQ(spec->tenant, "acme");
  EXPECT_EQ(spec->kind, "compare");
  EXPECT_EQ(spec->cost, 4u);
  EXPECT_EQ(spec->deadline_ms, 250);
  EXPECT_EQ(spec->max_steps, 9u);
  EXPECT_EQ(spec->params.at("algorithm"), "datafly");
}

TEST(JobSpecTest, RejectsMalformedSubmits) {
  EXPECT_FALSE(ParseSubmitSpec("").ok());
  EXPECT_FALSE(ParseSubmitSpec("bad/id").ok());
  EXPECT_FALSE(ParseSubmitSpec("j1 kind=destroy").ok());
  EXPECT_FALSE(ParseSubmitSpec("j1 cost=0").ok());
  EXPECT_FALSE(ParseSubmitSpec("j1 cost=-2").ok());
  EXPECT_FALSE(ParseSubmitSpec("j1 deadline_ms=yesterday").ok());
  EXPECT_FALSE(ParseSubmitSpec("j1 stray-token").ok());
  EXPECT_FALSE(ParseSubmitSpec("j1 tenant=bad tenant").ok());
  // Ids name files under the state dir; `..` would target the dir itself.
  EXPECT_FALSE(ParseSubmitSpec(".").ok());
  EXPECT_FALSE(ParseSubmitSpec("..").ok());
  EXPECT_TRUE(ParseSubmitSpec("...").ok());
}

TEST(JobSpecTest, ParsesJobSpecCsvWithBudgetsAndParams) {
  auto jobs = ParseJobSpecCsv(
      "id,algorithm,k,deadline_ms,max_steps\n"
      "a,datafly,2,,\n"
      "b,samarati,5,2500,\n"
      "c,optimal,10,,100000\n");
  ASSERT_TRUE(jobs.ok()) << jobs.status().ToString();
  ASSERT_EQ(jobs->size(), 3u);
  EXPECT_EQ((*jobs)[0].id, "a");
  EXPECT_EQ((*jobs)[0].kind, "anonymize");
  EXPECT_EQ((*jobs)[0].params.at("algorithm"), "datafly");
  EXPECT_EQ((*jobs)[0].params.at("k"), "2");
  EXPECT_EQ((*jobs)[0].deadline_ms, 0);
  EXPECT_EQ((*jobs)[1].deadline_ms, 2500);
  EXPECT_EQ((*jobs)[2].max_steps, 100000u);
  // Budget columns become budgets, not params.
  EXPECT_EQ((*jobs)[1].params.count("deadline_ms"), 0u);
}

TEST(JobSpecTest, RejectsMalformedJobSpecCsv) {
  EXPECT_FALSE(ParseJobSpecCsv("").ok());
  EXPECT_FALSE(ParseJobSpecCsv("algorithm,k\ndatafly,2\n").ok());  // No id.
  EXPECT_FALSE(ParseJobSpecCsv("id,k\na,2\na,3\n").ok());   // Duplicate id.
  EXPECT_FALSE(ParseJobSpecCsv("id,k\n,2\n").ok());             // Empty id.
  EXPECT_FALSE(ParseJobSpecCsv("id,k\na\n").ok());             // Ragged row.
  EXPECT_FALSE(ParseJobSpecCsv("id,deadline_ms\na,soon\n").ok());
  EXPECT_FALSE(ParseJobSpecCsv("id,max_steps\na,-5\n").ok());
  // Ids that are not safe file names are rejected, naming the row, before
  // any job runs.
  for (const char* id : {"../escaped", ".", "..", "a/b", "sp ace"}) {
    auto jobs =
        ParseJobSpecCsv("id,k\nok,2\n\"" + std::string(id) + "\",3\n");
    ASSERT_FALSE(jobs.ok()) << id;
    EXPECT_EQ(jobs.status().code(), StatusCode::kInvalidArgument) << id;
    EXPECT_NE(jobs.status().message().find("row 3"), std::string::npos)
        << jobs.status().message();
  }
}

TEST(JobSpecTest, TransientStatusClassification) {
  EXPECT_TRUE(IsTransientStatus(Status::DeadlineExceeded("x")));
  EXPECT_TRUE(IsTransientStatus(Status::ResourceExhausted("x")));
  EXPECT_TRUE(IsTransientStatus(Status::Internal("x")));
  EXPECT_FALSE(IsTransientStatus(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsTransientStatus(Status::NotFound("x")));
  EXPECT_FALSE(IsTransientStatus(Status::Cancelled("x")));
  EXPECT_FALSE(IsTransientStatus(Status::Ok()));
}

TEST(BackoffTest, StaysWithinTheDecorrelatedEnvelope) {
  const int64_t base = 10;
  const int64_t max = 1000;
  BackoffSequence backoff(base, max, /*seed=*/42, BackoffSalt("job-a"));
  int64_t prev = base;
  for (int retry = 1; retry <= 50; ++retry) {
    int64_t delay = backoff.NextDelayMs();
    EXPECT_GE(delay, base) << "retry " << retry;
    EXPECT_LE(delay, max) << "retry " << retry;
    // Decorrelated jitter bound: no delay exceeds 3x its predecessor.
    EXPECT_LE(delay, std::max(base, 3 * prev)) << "retry " << retry;
    prev = delay;
  }
}

TEST(BackoffTest, IsReproduciblePerSeedAndSalt) {
  auto draw = [](uint64_t seed, const std::string& job) {
    BackoffSequence backoff(10, 1000, seed, BackoffSalt(job));
    std::vector<int64_t> delays;
    for (int retry = 1; retry <= 8; ++retry) {
      delays.push_back(backoff.NextDelayMs());
    }
    return delays;
  };
  // Same seed + same job id -> the identical stream.
  EXPECT_EQ(draw(42, "job-a"), draw(42, "job-a"));
  // Different jobs under one seed (and different seeds for one job)
  // desynchronize — the whole point of jitter.
  EXPECT_NE(draw(42, "job-a"), draw(42, "job-b"));
  EXPECT_NE(draw(42, "job-a"), draw(43, "job-a"));
}

TEST(BackoffTest, ZeroBaseNeverSleeps) {
  BackoffSequence backoff(/*base_ms=*/0, /*max_ms=*/1000, /*seed=*/7,
                          /*salt=*/9);
  for (int retry = 1; retry <= 5; ++retry) {
    EXPECT_EQ(backoff.NextDelayMs(), 0);
  }
}

TEST(BackoffTest, SaltDiffersAcrossJobIds) {
  EXPECT_NE(BackoffSalt("job-a"), BackoffSalt("job-b"));
  EXPECT_EQ(BackoffSalt("job-a"), BackoffSalt("job-a"));
}

TEST(JobSpecTest, RecordsRoundTrip) {
  JobSpec spec = Spec("job-7", "acme", 3);
  spec.kind = "compare";
  spec.deadline_ms = 123;
  spec.max_steps = 456;
  spec.params["algorithm"] = "datafly";
  std::string bytes = SerializeJobSpec(spec, 99);
  auto record = DeserializeJobSpec(bytes);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->seq, 99u);
  EXPECT_EQ(record->spec.id, "job-7");
  EXPECT_EQ(record->spec.tenant, "acme");
  EXPECT_EQ(record->spec.cost, 3u);
  EXPECT_EQ(record->spec.params.at("algorithm"), "datafly");

  JobOutcome outcome;
  outcome.id = "job-7";
  outcome.state = JobState::kTruncated;
  outcome.attempts = 2;
  outcome.message = "deadline";
  auto parsed = DeserializeOutcome(SerializeOutcome(outcome));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->id, "job-7");
  EXPECT_EQ(parsed->state, JobState::kTruncated);
  EXPECT_EQ(parsed->attempts, 2u);
  EXPECT_EQ(parsed->message, "deadline");

  // Corrupt records are hard errors, never silent fresh starts.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_FALSE(DeserializeJobSpec(corrupt).ok());
}

TEST(AdmissionQueueTest, ShedsDeterministicallyFromArrivalOrderAlone) {
  AdmissionConfig config;
  config.window_capacity = 3;
  // The same arrival sequence must produce the same decisions no matter
  // how fast a worker drains the queue — dequeue between admissions and
  // verify decisions are unchanged from the no-dequeue run.
  for (bool drain_between : {false, true}) {
    AdmissionQueue queue(config);
    std::vector<AdmitDecision> decisions;
    for (int i = 0; i < 5; ++i) {
      decisions.push_back(
          queue.Admit(Spec(std::string("j").append(std::to_string(i)))));
      if (drain_between) queue.Dequeue();  // Worker racing ahead.
    }
    EXPECT_EQ(decisions[0], AdmitDecision::kAdmitted);
    EXPECT_EQ(decisions[1], AdmitDecision::kAdmitted);
    EXPECT_EQ(decisions[2], AdmitDecision::kAdmitted);
    EXPECT_EQ(decisions[3], AdmitDecision::kOverloadedWindow)
        << "drain_between=" << drain_between;
    EXPECT_EQ(decisions[4], AdmitDecision::kOverloadedWindow);
  }
}

TEST(AdmissionQueueTest, WindowResetReopensAdmission) {
  AdmissionConfig config;
  config.window_capacity = 2;
  AdmissionQueue queue(config);
  EXPECT_EQ(queue.Admit(Spec("a")), AdmitDecision::kAdmitted);
  EXPECT_EQ(queue.Admit(Spec("b")), AdmitDecision::kAdmitted);
  EXPECT_EQ(queue.Admit(Spec("c")), AdmitDecision::kOverloadedWindow);
  while (queue.Dequeue().has_value()) {
  }
  queue.ResetWindow();  // The client-visible barrier.
  EXPECT_EQ(queue.Admit(Spec("c")), AdmitDecision::kAdmitted);
}

TEST(AdmissionQueueTest, TenantBudgetShedsTyped) {
  AdmissionConfig config;
  config.window_capacity = 100;
  config.tenant_budget = 2;
  AdmissionQueue queue(config);
  EXPECT_EQ(queue.Admit(Spec("a1", "acme")), AdmitDecision::kAdmitted);
  EXPECT_EQ(queue.Admit(Spec("a2", "acme")), AdmitDecision::kAdmitted);
  EXPECT_EQ(queue.Admit(Spec("a3", "acme")),
            AdmitDecision::kOverloadedTenant);
  // Another tenant still has budget; the global window is not exhausted.
  EXPECT_EQ(queue.Admit(Spec("b1", "globex")), AdmitDecision::kAdmitted);
}

TEST(AdmissionQueueTest, DuplicateInvalidAndDrainingDecisions) {
  AdmissionQueue queue(AdmissionConfig{});
  EXPECT_EQ(queue.Admit(Spec("a")), AdmitDecision::kAdmitted);
  EXPECT_EQ(queue.Admit(Spec("a")), AdmitDecision::kDuplicateId);
  EXPECT_EQ(queue.Admit(Spec("")), AdmitDecision::kInvalidSpec);
  EXPECT_EQ(queue.Admit(Spec("bad id!")), AdmitDecision::kInvalidSpec);
  EXPECT_EQ(queue.Admit(Spec("zero", "default", 0)),
            AdmitDecision::kInvalidSpec);
  queue.CloseForDrain();
  EXPECT_EQ(queue.Admit(Spec("late")), AdmitDecision::kDraining);
  EXPECT_STREQ(AdmitDecisionName(AdmitDecision::kOverloadedWindow),
               "overloaded_window");
  EXPECT_TRUE(IsOverloaded(AdmitDecision::kOverloadedTenant));
  EXPECT_FALSE(IsOverloaded(AdmitDecision::kDraining));
}

TEST(AdmissionQueueTest, DeficitRoundRobinInterleavesTenants) {
  AdmissionConfig config;
  config.window_capacity = 100;
  AdmissionQueue queue(config);
  // Tenant "greedy" floods first; "modest" submits two jobs afterwards.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(queue.Admit(Spec("g" + std::to_string(i), "greedy")),
              AdmitDecision::kAdmitted);
  }
  ASSERT_EQ(queue.Admit(Spec("m0", "modest")), AdmitDecision::kAdmitted);
  ASSERT_EQ(queue.Admit(Spec("m1", "modest")), AdmitDecision::kAdmitted);
  std::vector<std::string> order = queue.QueuedIds();
  ASSERT_EQ(order.size(), 6u);
  // DRR alternates equal-cost tenants instead of running the flood first.
  EXPECT_EQ(order[0], "g0");
  EXPECT_EQ(order[1], "m0");
  EXPECT_EQ(order[2], "g1");
  EXPECT_EQ(order[3], "m1");
  EXPECT_EQ(order[4], "g2");
  EXPECT_EQ(order[5], "g3");
}

TEST(AdmissionQueueTest, CostWeightedSharing) {
  AdmissionConfig config;
  config.window_capacity = 100;
  config.quantum = 1;
  AdmissionQueue queue(config);
  // "heavy" jobs cost 2, "light" cost 1: light should dispatch twice as
  // often once deficits equalize.
  ASSERT_EQ(queue.Admit(Spec("h0", "heavy", 2)), AdmitDecision::kAdmitted);
  ASSERT_EQ(queue.Admit(Spec("h1", "heavy", 2)), AdmitDecision::kAdmitted);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(queue.Admit(Spec("l" + std::to_string(i), "light")),
              AdmitDecision::kAdmitted);
  }
  std::vector<std::string> order = queue.QueuedIds();
  ASSERT_EQ(order.size(), 6u);
  // Every heavy dispatch needs two quantum refills; lights keep flowing.
  int lights_before_last_heavy = 0;
  for (const std::string& id : order) {
    if (id == "h1") break;
    if (id[0] == 'l') ++lights_before_last_heavy;
  }
  EXPECT_GE(lights_before_last_heavy, 3);
}

TEST(ServiceCoreTest, RunsJobsAndPersistsArtifactsDurably) {
  std::string dir = FreshStateDir("basic");
  RecordingExecutor executor;
  ServiceConfig config;
  config.state_dir = dir;
  auto core = ServiceCore::Start(config, executor.AsExecutor());
  ASSERT_TRUE(core.ok()) << core.status().ToString();
  ASSERT_TRUE((*core)->Submit(Spec("a")).ok());
  ASSERT_TRUE((*core)->Submit(Spec("b")).ok());
  (*core)->WaitIdle();
  ServiceStats stats = (*core)->GetStats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.queued, 0u);
  ASSERT_TRUE((*core)->Drain().ok());
  auto artifact = ReadFileToString(dir + "/artifacts/a");
  ASSERT_TRUE(artifact.ok());
  EXPECT_EQ(*artifact, "artifact for a\n");
  EXPECT_TRUE(ReadFileToString(dir + "/done/a.done").ok());
  EXPECT_TRUE(ReadFileToString(dir + "/counters.txt").ok());
  EXPECT_TRUE(ReadFileToString(dir + "/metrics.json").ok());
}

TEST(ServiceCoreTest, DuplicateOfCompletedJobIsRejected) {
  std::string dir = FreshStateDir("dup");
  RecordingExecutor executor;
  ServiceConfig config;
  config.state_dir = dir;
  auto core = ServiceCore::Start(config, executor.AsExecutor());
  ASSERT_TRUE(core.ok());
  ASSERT_TRUE((*core)->Submit(Spec("a")).ok());
  (*core)->WaitIdle();
  auto decision = (*core)->Submit(Spec("a"));
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(*decision, AdmitDecision::kDuplicateId);
}

TEST(ServiceCoreTest, TransientFailuresRetryThenExhaust) {
  std::string dir = FreshStateDir("retry");
  int calls = 0;
  ServiceConfig config;
  config.state_dir = dir;
  config.max_retries = 2;
  config.backoff_base_ms = 0;  // No sleeping in tests.
  auto core = ServiceCore::Start(
      config, [&calls](const ServiceCore::ExecRequest&) {
        ++calls;
        ServiceCore::ExecResult result;
        result.status = Status::Internal("flaky io");
        return result;
      });
  ASSERT_TRUE(core.ok());
  ASSERT_TRUE((*core)->Submit(Spec("flaky")).ok());
  (*core)->WaitIdle();
  EXPECT_EQ(calls, 3);  // 1 attempt + 2 retries.
  std::vector<JobOutcome> outcomes = (*core)->Outcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].state, JobState::kExhausted);
  EXPECT_EQ(outcomes[0].attempts, 3u);
}

TEST(ServiceCoreTest, DeterministicFailuresQuarantineWithoutRetry) {
  std::string dir = FreshStateDir("quarantine");
  int calls = 0;
  ServiceConfig config;
  config.state_dir = dir;
  config.backoff_base_ms = 0;
  auto core = ServiceCore::Start(
      config, [&calls](const ServiceCore::ExecRequest&) {
        ++calls;
        ServiceCore::ExecResult result;
        result.status = Status::InvalidArgument("bad spec");
        return result;
      });
  ASSERT_TRUE(core.ok());
  ASSERT_TRUE((*core)->Submit(Spec("broken")).ok());
  (*core)->WaitIdle();
  EXPECT_EQ(calls, 1);
  std::vector<JobOutcome> outcomes = (*core)->Outcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].state, JobState::kQuarantined);
}

TEST(ServiceCoreTest, ClientBudgetsPropagateIntoRunContext) {
  std::string dir = FreshStateDir("budget");
  int64_t seen_deadline = -1;
  bool step_budget_fired = false;
  ServiceConfig config;
  config.state_dir = dir;
  config.max_retries = 0;
  config.backoff_base_ms = 0;
  auto core = ServiceCore::Start(
      config,
      [&](const ServiceCore::ExecRequest& request) {
        seen_deadline = request.spec.deadline_ms;
        ServiceCore::ExecResult result;
        // Burn through the 5-step budget; Check must trip.
        for (int i = 0; i < 100; ++i) {
          if (!request.run->Check().ok()) {
            step_budget_fired = true;
            result.status = request.run->exhausted();
            return result;
          }
        }
        return result;
      });
  ASSERT_TRUE(core.ok());
  JobSpec spec = Spec("budgeted");
  spec.deadline_ms = 60000;
  spec.max_steps = 5;
  ASSERT_TRUE((*core)->Submit(spec).ok());
  (*core)->WaitIdle();
  EXPECT_EQ(seen_deadline, 60000);
  EXPECT_TRUE(step_budget_fired);
  std::vector<JobOutcome> outcomes = (*core)->Outcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].state, JobState::kExhausted);
}

TEST(ServiceCoreTest, DrainInterruptsInFlightJobAndSavesCheckpoint) {
  std::string dir = FreshStateDir("drain");
  ServiceConfig config;
  config.state_dir = dir;
  auto core = ServiceCore::Start(
      config, [](const ServiceCore::ExecRequest& request) {
        ServiceCore::ExecResult result;
        // Simulate a checkpointable search: spin until cancelled, then
        // hand back resumable state.
        while (request.run->Check().ok()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        result.status = request.run->exhausted();
        result.checkpoint = "sweep position 42";
        return result;
      });
  ASSERT_TRUE(core.ok());
  ASSERT_TRUE((*core)->Submit(Spec("long")).ok());
  // Give the worker a moment to start the job, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE((*core)->Drain().ok());
  auto checkpoint = ReadFileToString(dir + "/ckpt/long.ckpt");
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(*checkpoint, "sweep position 42");
  // No done record: the job is incomplete, not failed.
  EXPECT_FALSE(ReadFileToString(dir + "/done/long.done").ok());
  // Drain is idempotent.
  EXPECT_TRUE((*core)->Drain().ok());
}

TEST(ServiceCoreTest, RecoveryReplaysIncompleteJobsInAdmissionOrder) {
  std::string dir = FreshStateDir("recover");
  // Life 1: a slow executor; drain fires before anything completes, so
  // every admitted job stays journaled and incomplete.
  {
    ServiceConfig config;
    config.state_dir = dir;
    auto core = ServiceCore::Start(
        config, [](const ServiceCore::ExecRequest& request) {
          ServiceCore::ExecResult result;
          while (request.run->Check().ok()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          result.status = request.run->exhausted();
          return result;
        });
    ASSERT_TRUE(core.ok());
    ASSERT_TRUE((*core)->Submit(Spec("r1")).ok());
    ASSERT_TRUE((*core)->Submit(Spec("r2")).ok());
    ASSERT_TRUE((*core)->Submit(Spec("r3")).ok());
    ASSERT_TRUE((*core)->Drain().ok());
  }
  // Life 2: recovery re-queues all three and a fast executor completes
  // them; duplicate resubmission is rejected.
  {
    RecordingExecutor executor;
    ServiceConfig config;
    config.state_dir = dir;
    auto core = ServiceCore::Start(config, executor.AsExecutor());
    ASSERT_TRUE(core.ok()) << core.status().ToString();
    EXPECT_EQ((*core)->recovered_jobs(), 3u);
    auto duplicate = (*core)->Submit(Spec("r2"));
    ASSERT_TRUE(duplicate.ok());
    EXPECT_EQ(*duplicate, AdmitDecision::kDuplicateId);
    (*core)->WaitIdle();
    {
      std::lock_guard<std::mutex> lock(executor.mu);
      EXPECT_EQ(executor.order,
                (std::vector<std::string>{"r1", "r2", "r3"}));
    }
    ASSERT_TRUE((*core)->Drain().ok());
    EXPECT_TRUE(ReadFileToString(dir + "/artifacts/r1").ok());
    EXPECT_TRUE(ReadFileToString(dir + "/artifacts/r3").ok());
  }
  // Life 3: everything is done; nothing recovers, duplicates still
  // rejected.
  {
    RecordingExecutor executor;
    ServiceConfig config;
    config.state_dir = dir;
    auto core = ServiceCore::Start(config, executor.AsExecutor());
    ASSERT_TRUE(core.ok());
    EXPECT_EQ((*core)->recovered_jobs(), 0u);
    auto duplicate = (*core)->Submit(Spec("r1"));
    ASSERT_TRUE(duplicate.ok());
    EXPECT_EQ(*duplicate, AdmitDecision::kDuplicateId);
  }
}

TEST(ServiceCoreTest, ResumeCheckpointReachesTheNextLife) {
  std::string dir = FreshStateDir("resume");
  {
    ServiceConfig config;
    config.state_dir = dir;
    auto core = ServiceCore::Start(
        config, [](const ServiceCore::ExecRequest& request) {
          ServiceCore::ExecResult result;
          while (request.run->Check().ok()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          result.status = request.run->exhausted();
          result.checkpoint = "resume-me";
          return result;
        });
    ASSERT_TRUE(core.ok());
    ASSERT_TRUE((*core)->Submit(Spec("ck")).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE((*core)->Drain().ok());
  }
  std::string seen_resume;
  {
    ServiceConfig config;
    config.state_dir = dir;
    auto core = ServiceCore::Start(
        config, [&seen_resume](const ServiceCore::ExecRequest& request) {
          seen_resume = std::string(request.resume_checkpoint);
          ServiceCore::ExecResult result;
          result.artifact = "done\n";
          return result;
        });
    ASSERT_TRUE(core.ok());
    EXPECT_EQ((*core)->recovered_jobs(), 1u);
    (*core)->WaitIdle();
    ASSERT_TRUE((*core)->Drain().ok());
  }
  EXPECT_EQ(seen_resume, "resume-me");
}

TEST(ServiceCoreTest, ShedDecisionsIndependentOfWorkerSpeed) {
  // The acceptance property: a fixed arrival order produces the same
  // typed rejections whether the worker is instant or slow.
  auto run_script = [](std::chrono::milliseconds delay) {
    std::string dir = FreshStateDir("speed");
    RecordingExecutor executor;
    executor.delay = delay;
    ServiceConfig config;
    config.state_dir = dir;
    config.admission.window_capacity = 3;
    auto core = ServiceCore::Start(config, executor.AsExecutor());
    MDC_CHECK(core.ok());
    std::vector<std::string> decisions;
    for (int i = 0; i < 6; ++i) {
      auto decision =
          (*core)->Submit(Spec(std::string("s").append(std::to_string(i))));
      MDC_CHECK(decision.ok());
      decisions.push_back(AdmitDecisionName(*decision));
    }
    (*core)->WaitIdle();
    for (int i = 6; i < 9; ++i) {
      auto decision =
          (*core)->Submit(Spec(std::string("s").append(std::to_string(i))));
      MDC_CHECK(decision.ok());
      decisions.push_back(AdmitDecisionName(*decision));
    }
    MDC_CHECK((*core)->Drain().ok());
    return decisions;
  };
  std::vector<std::string> fast = run_script(std::chrono::milliseconds(0));
  std::vector<std::string> slow = run_script(std::chrono::milliseconds(20));
  EXPECT_EQ(fast, slow);
  ASSERT_EQ(fast.size(), 9u);
  EXPECT_EQ(fast[2], "admitted");
  EXPECT_EQ(fast[3], "overloaded_window");
  EXPECT_EQ(fast[5], "overloaded_window");
  // Post-barrier window: fresh budget.
  EXPECT_EQ(fast[6], "admitted");
}

TEST(ServiceCoreTest, CancelledDrainTokenStopsDispatchAndReleasesWaitIdle) {
  // A signal handler cancels the drain token without notifying anyone:
  // the in-flight job stops, nothing queued behind it is dispatched, and a
  // blocked WaitIdle returns so the front end can reach Drain().
  std::string dir = FreshStateDir("token");
  ServiceConfig config;
  config.state_dir = dir;
  CancellationToken signal = config.drain_token;
  std::mutex mu;
  int attempts = 0;
  auto core = ServiceCore::Start(
      config, [&](const ServiceCore::ExecRequest& request) {
        {
          std::lock_guard<std::mutex> lock(mu);
          ++attempts;
        }
        while (request.run->Check().ok()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ServiceCore::ExecResult result;
        result.status = request.run->exhausted();
        return result;
      });
  ASSERT_TRUE(core.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*core)->Submit(Spec("q" + std::to_string(i))).ok());
  }
  std::thread signaller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    signal.Cancel();
  });
  (*core)->WaitIdle();
  signaller.join();
  ServiceStats stats = (*core)->GetStats();
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.queued, 4u);  // Never dispatched.
  EXPECT_FALSE((*core)->Idle());  // A drain does not make a backlog idle.
  ASSERT_TRUE((*core)->Drain().ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(attempts, 1);
  }
  EXPECT_TRUE((*core)->Outcomes().empty());

  // The next life runs all five.
  RecordingExecutor executor;
  ServiceConfig next;
  next.state_dir = dir;
  auto resumed = ServiceCore::Start(next, executor.AsExecutor());
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ((*resumed)->recovered_jobs(), 5u);
  (*resumed)->WaitIdle();
  EXPECT_EQ((*resumed)->Outcomes().size(), 5u);
}

// ---------------------------------------------------------------------------
// RunJobList: the batch front ends' submit -> wait -> drain -> collect.

std::vector<JobSpec> MakeJobs(size_t count) {
  std::vector<JobSpec> jobs;
  for (size_t i = 0; i < count; ++i) {
    jobs.push_back(Spec("job" + std::to_string(i)));
  }
  return jobs;
}

ServiceConfig ListConfig(const std::string& tag) {
  ServiceConfig config;
  config.state_dir = FreshStateDir(tag);
  config.backoff_base_ms = 0;  // No sleeping in tests.
  return config;
}

// An executor whose attempts return `attempt(request)`, with a per-job
// artifact on success.
ServiceCore::Executor StatusExecutor(
    std::function<Status(const ServiceCore::ExecRequest&)> attempt) {
  return [attempt](const ServiceCore::ExecRequest& request) {
    ServiceCore::ExecResult result;
    result.status = attempt(request);
    if (result.status.ok()) result.artifact = request.spec.id + "\n";
    return result;
  };
}

const JobOutcome& OutcomeIn(const std::vector<JobOutcome>& outcomes,
                            const std::string& id) {
  auto it = std::ranges::find(outcomes, id, &JobOutcome::id);
  MDC_CHECK(it != outcomes.end());
  return *it;
}

TEST(JobListTest, PoisonedAndTransientJobsAmongHealthyOnes) {
  // Twelve jobs: job3 deterministically poisoned (quarantined after ONE
  // attempt, no retries wasted), job7 transient (fails twice, then
  // succeeds), the rest healthy.
  std::map<std::string, int> calls;
  ServiceConfig config = ListConfig("poison");
  config.max_retries = 3;
  auto outcomes = RunJobList(
      config,
      StatusExecutor([&calls](const ServiceCore::ExecRequest& request) {
        const std::string& id = request.spec.id;
        int attempt = ++calls[id];
        if (id == "job3") return Status::InvalidArgument("bad spec row");
        if (id == "job7" && attempt <= 2) {
          return Status::Internal("flaky dependency");
        }
        return Status::Ok();
      }),
      MakeJobs(12));
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), 12u);
  EXPECT_EQ((*outcomes)[0].id, "job0");  // Job order.
  EXPECT_EQ(CountState(*outcomes, JobState::kPending), 0u);
  EXPECT_EQ(CountState(*outcomes, JobState::kOk), 11u);
  EXPECT_EQ(CountState(*outcomes, JobState::kQuarantined), 1u);

  const JobOutcome& poisoned = OutcomeIn(*outcomes, "job3");
  EXPECT_EQ(poisoned.state, JobState::kQuarantined);
  EXPECT_EQ(poisoned.attempts, 1u);  // Deterministic failures never retry.
  EXPECT_EQ(calls["job3"], 1);
  EXPECT_NE(poisoned.message.find("bad spec row"), std::string::npos);

  const JobOutcome& flaky = OutcomeIn(*outcomes, "job7");
  EXPECT_EQ(flaky.state, JobState::kOk);
  EXPECT_EQ(flaky.attempts, 3u);
  EXPECT_EQ(calls["job7"], 3);

  std::string summary = OutcomeSummary(*outcomes);
  EXPECT_NE(summary.find("quarantined"), std::string::npos);
  EXPECT_NE(summary.find("retried x2"), std::string::npos);
  EXPECT_NE(summary.find("ok=11"), std::string::npos);
  EXPECT_EQ(summary.find("(aborted)"), std::string::npos);
  auto artifact = ReadFileToString(config.state_dir + "/artifacts/job7");
  ASSERT_TRUE(artifact.ok());
  EXPECT_EQ(*artifact, "job7\n");
}

TEST(JobListTest, TransientFailuresExhaustAfterMaxRetries) {
  int calls = 0;
  ServiceConfig config = ListConfig("exhaust");
  config.max_retries = 2;
  auto outcomes = RunJobList(
      config, StatusExecutor([&calls](const ServiceCore::ExecRequest&) {
        ++calls;
        return Status::DeadlineExceeded("always slow");
      }),
      MakeJobs(1));
  ASSERT_TRUE(outcomes.ok());
  EXPECT_EQ((*outcomes)[0].state, JobState::kExhausted);
  EXPECT_EQ((*outcomes)[0].attempts, 3u);  // Initial + 2 retries.
  EXPECT_EQ(calls, 3);
}

TEST(JobListTest, BudgetTruncationIsReportedNotRetried) {
  std::vector<JobSpec> jobs = MakeJobs(1);
  jobs[0].max_steps = 1;
  int calls = 0;
  auto outcomes = RunJobList(
      ListConfig("truncate"),
      StatusExecutor([&calls](const ServiceCore::ExecRequest& request) {
        ++calls;
        // Exhaust the step budget, then degrade to a best-so-far answer
        // the way the lattice searches do: the job itself succeeds.
        while (request.run->Check().ok()) {
        }
        return Status::Ok();
      }),
      jobs);
  ASSERT_TRUE(outcomes.ok());
  EXPECT_EQ((*outcomes)[0].state, JobState::kTruncated);
  EXPECT_EQ(calls, 1);
}

TEST(JobListTest, KilledListResumesAtFirstIncompleteJob) {
  // "Kill" the list by cancelling the drain token from inside job5's
  // executor, as a signal handler would; rerunning the same list on the
  // same state dir must replay jobs 0-4 from their done records (zero
  // executor calls) and run 5-11 for real.
  std::vector<JobSpec> jobs = MakeJobs(12);
  std::map<std::string, int> calls;
  ServiceConfig config = ListConfig("resume");
  CancellationToken kill = config.drain_token;  // Copies share one flag.
  auto first = RunJobList(
      config,
      StatusExecutor(
          [&calls, &kill](const ServiceCore::ExecRequest& request) {
            ++calls[request.spec.id];
            if (request.spec.id == "job5") {
              kill.Cancel();
              return Status::Cancelled("killed mid-list");
            }
            return Status::Ok();
          }),
      jobs);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(CountState(*first, JobState::kOk), 5u);
  // The killed job and everything after it stay pending for the resume.
  EXPECT_EQ(CountState(*first, JobState::kPending), 7u);
  EXPECT_EQ(OutcomeIn(*first, "job5").state, JobState::kPending);
  EXPECT_EQ(calls.size(), 6u);  // Jobs 6-11 were never attempted.
  EXPECT_NE(OutcomeSummary(*first).find("pending=7 (aborted)"),
            std::string::npos);

  ServiceConfig resume = config;
  resume.drain_token = CancellationToken();
  auto second = RunJobList(
      resume,
      StatusExecutor([&calls](const ServiceCore::ExecRequest& request) {
        ++calls[request.spec.id];
        return Status::Ok();
      }),
      jobs);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(CountState(*second, JobState::kOk), 12u);
  for (int i = 0; i < 12; ++i) {
    // Completed jobs ran exactly once across both runs; the killed job
    // ran once in each.
    EXPECT_EQ(calls["job" + std::to_string(i)], i == 5 ? 2 : 1) << i;
  }
}

TEST(JobListTest, ResumeReplaysTerminalFailuresWithoutRerunningThem) {
  // Quarantined is terminal: rerunning a finished list re-runs nothing,
  // including the quarantined job.
  int calls = 0;
  ServiceConfig config = ListConfig("terminal");
  auto executor =
      StatusExecutor([&calls](const ServiceCore::ExecRequest& request) {
        ++calls;
        if (request.spec.id == "job1") {
          return Status::InvalidArgument("poisoned");
        }
        return Status::Ok();
      });
  ASSERT_TRUE(RunJobList(config, executor, MakeJobs(3)).ok());
  EXPECT_EQ(calls, 3);

  auto second = RunJobList(config, executor, MakeJobs(3));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(calls, 3);  // Nothing re-ran.
  EXPECT_EQ(CountState(*second, JobState::kOk), 2u);
  EXPECT_EQ(OutcomeIn(*second, "job1").state, JobState::kQuarantined);
  EXPECT_NE(OutcomeIn(*second, "job1").message.find("poisoned"),
            std::string::npos);
}

TEST(JobListTest, StateDirNamingAnUnknownJobIsRejected) {
  // A state dir written for one list must not silently apply to another.
  int calls = 0;
  ServiceConfig config = ListConfig("unknown");
  auto executor = StatusExecutor([&calls](const ServiceCore::ExecRequest&) {
    ++calls;
    return Status::Ok();
  });
  ASSERT_TRUE(RunJobList(config, executor, MakeJobs(3)).ok());

  auto renamed = RunJobList(config, executor, {Spec("different")});
  ASSERT_FALSE(renamed.ok());
  EXPECT_NE(renamed.status().message().find("unknown job id"),
            std::string::npos);
  EXPECT_EQ(calls, 3);  // Refused before anything ran.
}

TEST(JobListTest, RejectsBadJobLists) {
  auto executor = StatusExecutor(
      [](const ServiceCore::ExecRequest&) { return Status::Ok(); });
  EXPECT_FALSE(RunJobList(ListConfig("null"), nullptr, MakeJobs(1)).ok());
  std::vector<JobSpec> duplicate = MakeJobs(2);
  duplicate[1].id = duplicate[0].id;
  EXPECT_FALSE(RunJobList(ListConfig("dup"), executor, duplicate).ok());
  for (const char* id : {"", "..", "../escaped"}) {
    EXPECT_FALSE(RunJobList(ListConfig("bad_id"), executor, {Spec(id)}).ok())
        << id;
  }
  ServiceConfig negative = ListConfig("negative");
  negative.max_retries = -1;
  EXPECT_FALSE(RunJobList(negative, executor, MakeJobs(1)).ok());
}

}  // namespace
}  // namespace mdc::service
