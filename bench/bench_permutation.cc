// Perturbation + permutation-model benchmarks backing
// BENCH_permutation.json:
//   1. per-mechanism perturbation throughput (rows/s) at N ∈ {1e4, 1e5,
//      1e6} — noise and microaggregation are O(N) (the row order is a
//      linear-pass radix sort, StableOrder), rank swapping adds its
//      O(N log N) Fenwick sweep;
//   2. permutation-model extraction throughput (rank vectors + rank
//      distances) at the same sizes, serial vs threaded across columns;
//   3. RankVector alone at the same sizes, checked against a
//      std::stable_sort reference before it is timed;
//   4. a determinism benchmark asserting the released table and the
//      perturb.*/perm.* counters stay byte-identical across thread
//      counts (the bench aborts loudly if the wave contract regresses).
// items_processed counts released cells, so items_per_second is cell
// throughput.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "anonymize/perturb/perturb.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/permutation_metrics.h"
#include "table/dataset.h"
#include "table/schema.h"

namespace mdc {
namespace {

// `cols` real QI columns of uniform values — age-like magnitudes with
// occasional exact ties, the distribution the rank sort actually sees.
std::shared_ptr<const Dataset> MakeData(size_t rows, size_t cols,
                                        uint64_t seed) {
  std::vector<AttributeDef> attributes;
  for (size_t c = 0; c < cols; ++c) {
    AttributeDef attr;
    attr.name = std::string("c").append(std::to_string(c));
    attr.type = AttributeType::kReal;
    attr.role = AttributeRole::kQuasiIdentifier;
    attributes.push_back(attr);
  }
  auto schema = Schema::Create(std::move(attributes));
  MDC_CHECK(schema.ok());
  Dataset data(*schema);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < cols; ++c) {
      row.emplace_back(rng.NextBool(0.25)
                           ? static_cast<double>(rng.NextInt(18, 90))
                           : rng.NextDouble() * 100.0);
    }
    MDC_CHECK(data.AppendRow(std::move(row)).ok());
  }
  return std::make_shared<const Dataset>(std::move(data));
}

void RunPerturb(benchmark::State& state, PerturbMechanism mechanism) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = static_cast<size_t>(state.range(1));
  auto data = MakeData(rows, cols, /*seed=*/42);
  PerturbConfig config;
  config.mechanism = mechanism;
  config.swap_window = 0.1;
  config.k = 5;
  config.threads = static_cast<int>(state.range(2));
  size_t cells = 0;
  for (auto _ : state) {
    auto result = PerturbAnonymize(data, config);
    MDC_CHECK(result.ok());
    benchmark::DoNotOptimize(result->anonymization.release.row_count());
    cells += rows * cols;
  }
  state.SetItemsProcessed(static_cast<int64_t>(cells));
}

void BM_Perturb_Noise(benchmark::State& state) {
  RunPerturb(state, PerturbMechanism::kNoise);
}
void BM_Perturb_RankSwap(benchmark::State& state) {
  RunPerturb(state, PerturbMechanism::kRankSwap);
}
void BM_Perturb_Microagg(benchmark::State& state) {
  RunPerturb(state, PerturbMechanism::kMicroaggregation);
}
BENCHMARK(BM_Perturb_Noise)
    ->Args({10000, 4, 1})
    ->Args({100000, 4, 1})
    ->Args({1000000, 4, 1})
    ->Args({1000000, 4, 0})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Perturb_RankSwap)
    ->Args({10000, 4, 1})
    ->Args({100000, 4, 1})
    ->Args({1000000, 4, 1})
    ->Args({1000000, 4, 0})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Perturb_Microagg)
    ->Args({10000, 4, 1})
    ->Args({100000, 4, 1})
    ->Args({1000000, 4, 1})
    ->Args({1000000, 4, 0})
    ->Unit(benchmark::kMillisecond);

// Permutation-model extraction over the released table: rank both sides,
// invert, accumulate displacement vectors.
void BM_PermutationModel(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = static_cast<size_t>(state.range(1));
  auto data = MakeData(rows, cols, /*seed=*/43);
  PerturbConfig config;
  config.mechanism = PerturbMechanism::kRankSwap;
  config.swap_window = 0.1;
  auto release = PerturbAnonymize(data, config);
  MDC_CHECK(release.ok());
  PermutationMetricsOptions options;
  options.threads = static_cast<int>(state.range(2));
  size_t cells = 0;
  for (auto _ : state) {
    auto model = PermutationModelFor(release->anonymization, nullptr, options);
    MDC_CHECK(model.ok());
    benchmark::DoNotOptimize(model->privacy.values().data());
    cells += rows * cols;
  }
  state.SetItemsProcessed(static_cast<int64_t>(cells));
}
BENCHMARK(BM_PermutationModel)
    ->Args({10000, 4, 1})
    ->Args({100000, 4, 1})
    ->Args({1000000, 4, 1})
    ->Args({100000, 4, 2})
    ->Args({100000, 4, 4})
    ->Args({100000, 4, 0})
    ->Unit(benchmark::kMillisecond);

// One column of MakeData ranked: the primitive under the model and both
// order-based mechanisms. The ranks must equal a std::stable_sort
// reference (ties by row index) before anything is timed, so the
// bench-smoke run is also a release-build oracle gate.
void BM_RankVector(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const std::vector<double> values =
      MakeData(rows, 1, /*seed=*/45)->Numbers(0);
  std::vector<uint32_t> order(rows);
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return values[a] < values[b];
  });
  std::vector<uint32_t> want(rows);
  for (size_t r = 0; r < rows; ++r) want[order[r]] = static_cast<uint32_t>(r);
  MDC_CHECK(RankVector(values) == want);
  for (auto _ : state) {
    std::vector<uint32_t> ranks = RankVector(values);
    benchmark::DoNotOptimize(ranks.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_RankVector)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// Determinism assertions as a benchmark: every iteration re-perturbs and
// re-models at `threads` and requires byte-identical release CSV and
// deterministic counter text against the single-thread reference.
void BM_PerturbThreadInvariance(benchmark::State& state) {
  auto data = MakeData(20000, 6, /*seed=*/44);
  PerturbConfig config;
  config.mechanism = PerturbMechanism::kRankSwap;
  config.swap_window = 0.2;
  config.threads = 1;
  metrics::ResetForTest();
  auto reference = PerturbAnonymize(data, config);
  MDC_CHECK(reference.ok());
  auto reference_model =
      PermutationModelFor(reference->anonymization, nullptr);
  MDC_CHECK(reference_model.ok());
  const std::string want_csv = reference->anonymization.release.ToCsv();
  const std::string want_counters =
      metrics::Snapshot().DeterministicCountersText();
  const std::string want_summary = PermutationModelSummary(*reference_model);

  config.threads = static_cast<int>(state.range(0));
  PermutationMetricsOptions options;
  options.threads = config.threads;
  for (auto _ : state) {
    metrics::ResetForTest();
    auto result = PerturbAnonymize(data, config);
    MDC_CHECK(result.ok());
    auto model = PermutationModelFor(result->anonymization, nullptr, options);
    MDC_CHECK(model.ok());
    MDC_CHECK(result->anonymization.release.ToCsv() == want_csv);
    MDC_CHECK(PermutationModelSummary(*model) == want_summary);
    MDC_CHECK(metrics::Snapshot().DeterministicCountersText() ==
              want_counters);
  }
  state.SetItemsProcessed(static_cast<int64_t>(
      state.iterations() * static_cast<int64_t>(20000 * 6)));
}
BENCHMARK(BM_PerturbThreadInvariance)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mdc
