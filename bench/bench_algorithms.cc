// PERF-2: anonymization algorithm runtime vs data-set size and k on
// synthetic census microdata, and the two-release compare of two of its
// releases.

#include <benchmark/benchmark.h>

#include "anonymize/clustering.h"
#include "anonymize/datafly.h"
#include "anonymize/incognito.h"
#include "anonymize/mondrian.h"
#include "anonymize/optimal_lattice.h"
#include "anonymize/pareto_lattice.h"
#include "anonymize/samarati.h"
#include "anonymize/stochastic.h"
#include "core/report.h"
#include "datagen/census_generator.h"

namespace mdc {
namespace {

CensusData MakeCensus(size_t rows) {
  CensusConfig config;
  config.rows = rows;
  config.seed = 1234;
  config.with_occupation = false;
  auto census = GenerateCensus(config);
  MDC_CHECK(census.ok());
  return std::move(census).value();
}

void BM_Datafly(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  DataflyConfig config;
  config.k = static_cast<int>(state.range(1));
  config.suppression.max_fraction = 0.02;
  for (auto _ : state) {
    auto result = DataflyAnonymize(census.data, census.hierarchies, config);
    MDC_CHECK(result.ok());
    benchmark::DoNotOptimize(result->evaluation.suppressed_count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Datafly)
    ->Args({200, 5})
    ->Args({1000, 5})
    ->Args({5000, 5})
    ->Args({1000, 2})
    ->Args({1000, 20});

void BM_Samarati(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  SamaratiConfig config;
  config.k = static_cast<int>(state.range(1));
  config.suppression.max_fraction = 0.02;
  for (auto _ : state) {
    auto result =
        SamaratiAnonymize(census.data, census.hierarchies, config);
    MDC_CHECK(result.ok());
    benchmark::DoNotOptimize(result->minimal_height);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Samarati)->Args({200, 5})->Args({1000, 5})->Args({1000, 20});

void BM_OptimalLattice(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  OptimalSearchConfig config;
  config.k = static_cast<int>(state.range(1));
  config.suppression.max_fraction = 0.02;
  for (auto _ : state) {
    auto result =
        OptimalLatticeSearch(census.data, census.hierarchies, config);
    MDC_CHECK(result.ok());
    benchmark::DoNotOptimize(result->nodes_evaluated);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OptimalLattice)->Args({200, 5})->Args({1000, 5});

void BM_Mondrian(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  MondrianConfig config;
  config.k = static_cast<int>(state.range(1));
  for (auto _ : state) {
    auto result = MondrianAnonymize(census.data, config);
    MDC_CHECK(result.ok());
    benchmark::DoNotOptimize(result->partition_count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Mondrian)
    ->Args({200, 5})
    ->Args({1000, 5})
    ->Args({5000, 5})
    ->Args({10000, 5})  // perfbench/ scale.
    ->Args({1000, 2})
    ->Args({1000, 20});

void BM_Incognito(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  IncognitoConfig config;
  config.k = static_cast<int>(state.range(1));
  config.suppression.max_fraction = 0.02;
  for (auto _ : state) {
    auto result =
        IncognitoAnonymize(census.data, census.hierarchies, config);
    MDC_CHECK(result.ok());
    benchmark::DoNotOptimize(result->frequency_evaluations);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Incognito)->Args({200, 5})->Args({1000, 5});

void BM_ParetoLattice(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  ParetoLatticeConfig config;
  for (auto _ : state) {
    auto result = ParetoLatticeSearch(census.data, census.hierarchies,
                                      config);
    MDC_CHECK(result.ok());
    benchmark::DoNotOptimize(result->vector_front.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParetoLattice)->Args({200, 0})->Args({1000, 0});

void BM_Stochastic(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  StochasticConfig config;
  config.k = static_cast<int>(state.range(1));
  config.suppression.max_fraction = 0.02;
  config.restarts = 4;
  for (auto _ : state) {
    auto result =
        StochasticAnonymize(census.data, census.hierarchies, config);
    MDC_CHECK(result.ok());
    benchmark::DoNotOptimize(result->nodes_evaluated);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Stochastic)->Args({200, 5})->Args({1000, 5});

void BM_KMemberClustering(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  ClusteringConfig config;
  config.k = static_cast<int>(state.range(1));
  for (auto _ : state) {
    auto result = KMemberClusterAnonymize(census.data, config);
    MDC_CHECK(result.ok());
    benchmark::DoNotOptimize(result->cluster_count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KMemberClustering)->Args({200, 5})->Args({1000, 5});

// The paper's two-release compare (CompareAnonymizations: class size,
// sensitive rarity and per-tuple utility, each ranked by the packed
// engine) of Datafly (k = 5, 2% suppression) against Mondrian (k = 5) on
// census microdata with seed 1, occupation included. The releases are
// built once, outside the timing loop.
void BM_CompareAnonymizations(benchmark::State& state) {
  CensusConfig census_config;
  census_config.rows = static_cast<size_t>(state.range(0));
  census_config.seed = 1;
  auto census = GenerateCensus(census_config);
  MDC_CHECK(census.ok());
  DataflyConfig datafly_config;
  datafly_config.k = 5;
  datafly_config.suppression.max_fraction = 0.02;
  auto datafly =
      DataflyAnonymize(census->data, census->hierarchies, datafly_config);
  MDC_CHECK(datafly.ok());
  auto mondrian = MondrianAnonymize(census->data, MondrianConfig{5});
  MDC_CHECK(mondrian.ok());
  for (auto _ : state) {
    auto report = CompareAnonymizations(
        datafly->evaluation.anonymization, datafly->evaluation.partition,
        mondrian->anonymization, mondrian->partition);
    MDC_CHECK(report.ok());
    benchmark::DoNotOptimize(report->net_score);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompareAnonymizations)
    ->Arg(10000)
    ->Arg(200000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mdc
