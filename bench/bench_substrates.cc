// PERF-3: substrate microbenchmarks — CSV parse and render, equivalence
// partitioning, hierarchy generalization, EMD, and loss-metric evaluation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "anonymize/equivalence.h"
#include "anonymize/generalizer.h"
#include "anonymize/perturb/perturb.h"
#include "common/csv.h"
#include "common/rng.h"
#include "datagen/census_generator.h"
#include "privacy/t_closeness.h"
#include "table/encoded_view.h"
#include "utility/loss_metric.h"

namespace mdc {
namespace {

CensusData MakeCensus(size_t rows) {
  CensusConfig config;
  config.rows = rows;
  config.seed = 7;
  config.with_occupation = false;
  auto census = GenerateCensus(config);
  MDC_CHECK(census.ok());
  return std::move(census).value();
}

Anonymization MakeRelease(const CensusData& census, int level) {
  std::vector<int> levels(census.hierarchies.size(), 0);
  for (size_t i = 0; i < levels.size(); ++i) {
    levels[i] = std::min(level, census.hierarchies.At(i).height());
  }
  auto scheme = GeneralizationScheme::Create(census.hierarchies, levels);
  MDC_CHECK(scheme.ok());
  auto anon = Generalizer::Apply(census.data, *scheme, "bench");
  MDC_CHECK(anon.ok());
  return std::move(anon).value();
}

// Census text as ToCsv renders it, with its schema.
struct CensusText {
  Schema schema;
  std::string text;
};

CensusText MakeCensusText(size_t rows) {
  CensusConfig config;
  config.rows = rows;
  config.seed = 7;
  auto census = GenerateCensus(config);
  MDC_CHECK(census.ok());
  return {census->data->schema(), census->data->ToCsv()};
}

void BM_DatasetFromCsv(benchmark::State& state) {
  const CensusText census = MakeCensusText(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto parsed = Dataset::FromCsv(census.schema, census.text);
    MDC_CHECK(parsed.ok());
    benchmark::DoNotOptimize(parsed->row_count());
    state.PauseTiming();
    MDC_CHECK(parsed->ToCsv() == census.text);
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(census.text.size()));
}
BENCHMARK(BM_DatasetFromCsv)->Arg(10000)->Arg(200000)
    ->Unit(benchmark::kMillisecond);

void BM_DatasetToCsv(benchmark::State& state) {
  const CensusText census = MakeCensusText(static_cast<size_t>(state.range(0)));
  auto parsed = Dataset::FromCsv(census.schema, census.text);
  MDC_CHECK(parsed.ok());
  for (auto _ : state) {
    std::string text = parsed->ToCsv();
    benchmark::DoNotOptimize(text.data());
    MDC_CHECK(text == census.text);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(census.text.size()));
}
BENCHMARK(BM_DatasetToCsv)->Arg(10000)->Arg(200000)
    ->Unit(benchmark::kMillisecond);

// One encoded position against a std::sort reference: `cells` sorted and
// made unique are the view's distinct values (read through `value_of`),
// and each row's code indexes its cell among them.
template <typename T, typename ValueOf>
void CheckCodes(const std::vector<T>& cells, const std::vector<Value>& distinct,
                const AlignedVector<uint32_t>& codes, ValueOf value_of) {
  std::vector<T> sorted = cells;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  MDC_CHECK(distinct.size() == sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    MDC_CHECK(value_of(distinct[i]) == sorted[i]);
  }
  for (size_t row = 0; row < cells.size(); ++row) {
    MDC_CHECK(sorted[codes[row]] == cells[row]);
  }
}

// Dictionary encoding of the census's five QI columns (EncodedView::Build):
// a string column orders the dictionary entries its rows use with
// StringOrder, a numeric one hashes first and sorts its distinct values.
// Before timing, every position's codes are MDC_CHECKed against a
// std::sort reference (CheckCodes).
void BM_EncodedViewBuild(benchmark::State& state) {
  CensusConfig config;
  config.rows = static_cast<size_t>(state.range(0));
  config.seed = 7;
  auto census = GenerateCensus(config);
  MDC_CHECK(census.ok());
  const Dataset& data = *census->data;
  const std::vector<size_t> columns = data.schema().QuasiIdentifierIndices();
  auto view = EncodedView::Build(data, columns);
  MDC_CHECK(view.ok());
  for (size_t pos = 0; pos < columns.size(); ++pos) {
    const size_t column = columns[pos];
    if (data.schema().attribute(column).type != AttributeType::kString) {
      CheckCodes(data.Numbers(column), view->distinct_values(pos),
                 view->codes(pos),
                 [](const Value& value) { return value.AsNumber(); });
      continue;
    }
    std::vector<std::string> cells;
    for (uint32_t code : data.codes(column)) {
      cells.push_back(data.dictionary(column)[code]);
    }
    CheckCodes(cells, view->distinct_values(pos), view->codes(pos),
               [](const Value& value) { return value.AsString(); });
  }
  for (auto _ : state) {
    auto encoded = EncodedView::Build(data, columns);
    MDC_CHECK(encoded.ok());
    benchmark::DoNotOptimize(encoded->CodeBytes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodedViewBuild)->Arg(10000)->Arg(200000)
    ->Unit(benchmark::kMillisecond);

// ToCsv's bytes for a dataset of more than one column, with every real
// printed by snprintf's "%.6f" and its trailing zeros dropped.
std::string SnprintfCsv(const Dataset& data) {
  const size_t m = data.column_count();
  std::string out;
  for (size_t c = 0; c < m; ++c) {
    if (c > 0) out += ',';
    out += CsvEscape(data.schema().attribute(c).name);
  }
  out += '\n';
  char buffer[512];
  for (size_t r = 0; r < data.row_count(); ++r) {
    for (size_t c = 0; c < m; ++c) {
      if (c > 0) out += ',';
      const Value cell = data.cell(r, c);
      if (cell.is_int()) {
        out += std::to_string(cell.AsInt());
      } else if (cell.is_real()) {
        std::snprintf(buffer, sizeof(buffer), "%.6f", cell.AsReal());
        std::string text = buffer;
        if (text.find('.') != std::string::npos) {
          size_t last = text.find_last_not_of('0');
          if (text[last] == '.') --last;
          text.erase(last + 1);
        }
        out += text;
      } else {
        out += CsvEscape(cell.AsString());
      }
    }
    out += '\n';
  }
  return out;
}

// The render `serve` persists for a rank-swap job: the census release
// whose age column rank swapping turned into reals.
void BM_RealColumnToCsv(benchmark::State& state) {
  CensusConfig config;
  config.rows = static_cast<size_t>(state.range(0));
  config.seed = 7;
  auto census = GenerateCensus(config);
  MDC_CHECK(census.ok());
  PerturbConfig perturb;
  perturb.mechanism = PerturbMechanism::kRankSwap;
  auto swapped = PerturbAnonymize(census->data, perturb);
  MDC_CHECK(swapped.ok());
  const Dataset& release = swapped->anonymization.release;
  const std::string reference = SnprintfCsv(release);
  for (auto _ : state) {
    std::string text = release.ToCsv();
    benchmark::DoNotOptimize(text.data());
    MDC_CHECK(text == reference);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RealColumnToCsv)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_GeneralizeRelease(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  std::vector<int> levels(census.hierarchies.size(), 1);
  auto scheme = GeneralizationScheme::Create(census.hierarchies, levels);
  MDC_CHECK(scheme.ok());
  for (auto _ : state) {
    auto anon = Generalizer::Apply(census.data, *scheme, "bench");
    MDC_CHECK(anon.ok());
    benchmark::DoNotOptimize(anon->release.row_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GeneralizeRelease)->Range(256, 1 << 14);

void BM_EquivalencePartition(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  Anonymization anon = MakeRelease(census, 2);
  for (auto _ : state) {
    EquivalencePartition partition =
        EquivalencePartition::FromAnonymization(anon);
    benchmark::DoNotOptimize(partition.class_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EquivalencePartition)->Range(256, 1 << 14);

void BM_LossMetric(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  Anonymization anon = MakeRelease(census, 2);
  for (auto _ : state) {
    auto loss = LossMetric::TotalLoss(anon);
    MDC_CHECK(loss.ok());
    benchmark::DoNotOptimize(*loss);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LossMetric)->Range(256, 1 << 12);

void BM_EmdPerClass(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  Anonymization anon = MakeRelease(census, 2);
  EquivalencePartition partition =
      EquivalencePartition::FromAnonymization(anon);
  for (auto _ : state) {
    auto emds = EmdPerClass(anon, partition, GroundDistance::kOrdered,
                            census.sensitive_column);
    MDC_CHECK(emds.ok());
    benchmark::DoNotOptimize(emds->size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EmdPerClass)->Range(256, 1 << 13);

void BM_HierarchyGeneralize(benchmark::State& state) {
  CensusData census = MakeCensus(1024);
  const ValueHierarchy& age = census.hierarchies.At(0);
  Rng rng(3);
  std::vector<Value> ages;
  for (int i = 0; i < 1024; ++i) ages.push_back(Value(rng.NextInt(17, 90)));
  size_t i = 0;
  for (auto _ : state) {
    auto label = age.Generalize(ages[i++ & 1023], 2);
    MDC_CHECK(label.ok());
    benchmark::DoNotOptimize(label->size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyGeneralize);

}  // namespace
}  // namespace mdc
