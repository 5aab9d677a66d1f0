// Serving-throughput benchmarks backing BENCH_service.json: the resident
// dataset cache on the paper's characteristic workload — many jobs over
// one dataset (§5 ranks many configurations against the same microdata).
//
//   BM_ServiceJobs/1 (cached) — ServiceCore with the cache on: jobs after
//       the first resolve by file stamp and hit the derived-model store.
//   BM_ServiceJobs/0 (cold)   — cache off: every job re-reads the CSV,
//       re-parses rows, re-perturbs, and re-extracts both models.
//
// One item = one submitted job carried to its durable terminal state
// (journal -> artifact -> done), so items_per_second is end-to-end job
// throughput including admission and the durability I/O both legs pay
// alike. Every job is a real `kind=compare algorithms=noise,rankswap`
// spec run by the production executor (service/executor.h), exactly as
// `mdc_cli serve` runs it. The acceptance bar for the cache is cached >=
// 5x cold on this workload.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>

#include "common/check.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "service/executor.h"
#include "service/service_core.h"

namespace mdc {
namespace {

constexpr const char* kSchemaSpec =
    "c0:real:qi,c1:real:qi,c2:real:qi,c3:real:qi";
constexpr size_t kRows = 20000;
constexpr int kJobsPerBatch = 8;

// The dataset every job references, written once: 20k rows of the same
// age-like mixture the perturbation benches use.
const std::string& BenchInputPath() {
  static const std::string path = [] {
    std::string dir =
        "/tmp/mdc_bench_service_" + std::to_string(static_cast<long>(::getpid()));
    MDC_CHECK(std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()) ==
              0);
    std::string csv = "c0,c1,c2,c3\n";
    Rng rng(42);
    for (size_t r = 0; r < kRows; ++r) {
      for (size_t c = 0; c < 4; ++c) {
        double v = rng.NextBool(0.25)
                       ? static_cast<double>(rng.NextInt(18, 90))
                       : rng.NextDouble() * 100.0;
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.6f", v);
        csv += buffer;
        csv += (c + 1 < 4) ? ',' : '\n';
      }
    }
    std::string file = dir + "/data.csv";
    std::FILE* out = std::fopen(file.c_str(), "w");
    MDC_CHECK(out != nullptr);
    MDC_CHECK(std::fwrite(csv.data(), 1, csv.size(), out) == csv.size());
    MDC_CHECK(std::fclose(out) == 0);
    return file;
  }();
  return path;
}

// Jobs/second through a live ServiceCore, cache on (arg 1) or off (arg 0).
void BM_ServiceJobs(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  (void)BenchInputPath();  // Build the fixture outside the timed region.
  std::string state_dir = "/tmp/mdc_bench_service_core_" +
                          std::to_string(static_cast<long>(::getpid())) +
                          (cached ? "_cached" : "_cold");
  MDC_CHECK(std::system(("rm -rf " + state_dir).c_str()) == 0);

  service::ServiceConfig config;
  config.state_dir = state_dir;
  config.cache_enabled = cached;
  config.admission.window_capacity = 1024;
  config.admission.tenant_budget = 1024;
  auto core = service::ServiceCore::Start(
      config, [](const service::ServiceCore::ExecRequest& request) {
        return service::ExecuteJob(request, 1);
      });
  MDC_CHECK(core.ok());

  uint64_t next_id = 0;
  for (auto _ : state) {
    for (int j = 0; j < kJobsPerBatch; ++j) {
      service::JobSpec spec;
      spec.id = "bench-" + std::to_string(next_id++);
      spec.kind = "compare";
      spec.params = {{"algorithms", "noise,rankswap"},
                     {"input", BenchInputPath()},
                     {"schema", kSchemaSpec},
                     {"seed", "7"}};
      auto decision = (*core)->Submit(spec);
      MDC_CHECK(decision.ok() &&
                *decision == service::AdmitDecision::kAdmitted);
    }
    (*core)->WaitIdle();
  }
  for (const service::JobOutcome& outcome : (*core)->Outcomes()) {
    MDC_CHECK(outcome.state == service::JobState::kOk);
  }
  if (cached) {
    // The leg measured what it claims: repeats were served resident.
    MDC_CHECK((*core)->cache() != nullptr);
    MDC_CHECK((*core)->cache()->GetStats().hits > 0);
    MDC_CHECK(metrics::Snapshot().counters["svc.cache.model_hits"] > 0);
  }
  MDC_CHECK((*core)->Drain().ok());
  core->reset();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kJobsPerBatch));
  MDC_CHECK(std::system(("rm -rf " + state_dir).c_str()) == 0);
}
BENCHMARK(BM_ServiceJobs)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace mdc
