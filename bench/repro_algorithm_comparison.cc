// EXT-A: the comparison the paper's framework is *for* — five disclosure
// control algorithms on synthetic census microdata, judged first with the
// scalar indices comparative studies usually use, then with the paper's
// vector-based machinery (coverage / spread / rank matrices, bias
// reports), showing where the scalar view is misleading.

#include <cstdio>

#include "anonymize/datafly.h"
#include "anonymize/mondrian.h"
#include "anonymize/optimal_lattice.h"
#include "anonymize/samarati.h"
#include "anonymize/stochastic.h"
#include "anonymize/top_down.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "core/bias.h"
#include "core/properties.h"
#include "core/quality_index.h"
#include "datagen/census_generator.h"
#include "privacy/k_anonymity.h"
#include "privacy/l_diversity.h"
#include "privacy/t_closeness.h"
#include "repro_util.h"
#include "service/service_core.h"
#include "utility/avg_class_size.h"
#include "utility/discernibility.h"
#include "utility/loss_metric.h"

namespace {

using namespace mdc;

struct NamedRelease {
  std::string name;
  Anonymization anonymization;
  EquivalencePartition partition;
};

constexpr const char* kAlgorithms[] = {
    "datafly", "samarati",  "optimal",  "stochastic",
    "top-down", "bottom-up", "mondrian"};

// Runs one named algorithm at one k. Shared by the in-process comparison
// sweep and the supervised release export, so both produce the exact same
// releases.
StatusOr<NamedRelease> RunOne(const std::string& name,
                              const CensusData& census, int k,
                              RunContext* run) {
  SuppressionBudget budget{0.02};
  LossFn lm_loss = [](const Anonymization& anon,
                      const EquivalencePartition&) {
    auto loss = LossMetric::TotalLoss(anon);
    MDC_CHECK(loss.ok());
    return *loss;
  };
  if (name == "datafly") {
    DataflyConfig config{k, budget};
    MDC_ASSIGN_OR_RETURN(
        auto result,
        DataflyAnonymize(census.data, census.hierarchies, config, run));
    return NamedRelease{name, std::move(result.evaluation.anonymization),
                        std::move(result.evaluation.partition)};
  }
  if (name == "samarati") {
    SamaratiConfig config{k, budget};
    MDC_ASSIGN_OR_RETURN(auto result,
                         SamaratiAnonymize(census.data, census.hierarchies,
                                           config, ProxyLoss, run));
    return NamedRelease{name, std::move(result.best.anonymization),
                        std::move(result.best.partition)};
  }
  if (name == "optimal") {
    OptimalSearchConfig config;
    config.k = k;
    config.suppression = budget;
    MDC_ASSIGN_OR_RETURN(auto result,
                         OptimalLatticeSearch(census.data, census.hierarchies,
                                              config, lm_loss, run));
    return NamedRelease{name, std::move(result.best.anonymization),
                        std::move(result.best.partition)};
  }
  if (name == "stochastic") {
    StochasticConfig config;
    config.k = k;
    config.suppression = budget;
    config.seed = 17;
    MDC_ASSIGN_OR_RETURN(auto result,
                         StochasticAnonymize(census.data, census.hierarchies,
                                             config, lm_loss, run));
    return NamedRelease{name, std::move(result.best.anonymization),
                        std::move(result.best.partition)};
  }
  if (name == "top-down") {
    GreedyWalkConfig config{k, budget};
    MDC_ASSIGN_OR_RETURN(auto result,
                         TopDownSpecialize(census.data, census.hierarchies,
                                           config, lm_loss, run));
    return NamedRelease{name, std::move(result.evaluation.anonymization),
                        std::move(result.evaluation.partition)};
  }
  if (name == "bottom-up") {
    GreedyWalkConfig config{k, budget};
    MDC_ASSIGN_OR_RETURN(auto result,
                         BottomUpGeneralize(census.data, census.hierarchies,
                                            config, lm_loss, run));
    return NamedRelease{name, std::move(result.evaluation.anonymization),
                        std::move(result.evaluation.partition)};
  }
  if (name == "mondrian") {
    MondrianConfig config{k};
    MDC_ASSIGN_OR_RETURN(auto result,
                         MondrianAnonymize(census.data, config, run));
    return NamedRelease{name, std::move(result.anonymization),
                        std::move(result.partition)};
  }
  return Status::InvalidArgument("unknown algorithm " + name);
}

std::vector<NamedRelease> RunAll(const CensusData& census, int k,
                                 RunContext* run) {
  std::vector<NamedRelease> releases;
  for (const char* name : kAlgorithms) {
    auto release = RunOne(name, census, k, run);
    if (!repro::BudgetSkipped(name, release)) {
      releases.push_back(std::move(*release));
    }
  }
  return releases;
}

// Supervised artifact export: one service job per (k, algorithm) re-runs
// the algorithm on a ServiceCore whose state dir is `dir`, which durably
// writes the release CSV to `dir`/artifacts/<id>. The service journal
// makes the sweep resumable — a killed export picks up at the first job
// without a done record.
int ExportReleases(const CensusData& census, const std::string& dir) {
  std::vector<service::JobSpec> jobs;
  for (int k : {2, 5, 10}) {
    for (const char* name : kAlgorithms) {
      service::JobSpec job;
      job.id = std::string("k").append(std::to_string(k)) + "_" + name;
      job.params["algorithm"] = name;
      job.params["k"] = std::to_string(k);
      jobs.push_back(std::move(job));
    }
  }
  service::ServiceConfig config;
  config.state_dir = dir;
  auto outcomes = service::RunJobList(
      config,
      [&census](const service::ServiceCore::ExecRequest& request) {
        const auto& params = request.spec.params;
        auto k = ParseInt64(params.at("k"));
        MDC_CHECK(k.has_value());
        service::ServiceCore::ExecResult result;
        StatusOr<NamedRelease> release =
            RunOne(params.at("algorithm"), census, static_cast<int>(*k),
                   request.run);
        if (release.ok()) {
          result.artifact = release->anonymization.release.ToCsv();
        } else {
          result.status = release.status();
        }
        return result;
      },
      jobs);
  if (!outcomes.ok()) {
    std::fprintf(stderr, "error: %s\n", outcomes.status().ToString().c_str());
    return 1;
  }
  repro::Banner("Supervised release export to " + dir);
  std::printf("%s", service::OutcomeSummary(*outcomes).c_str());
  return service::CountState(*outcomes, service::JobState::kOk) +
                     service::CountState(*outcomes,
                                         service::JobState::kTruncated) ==
                 outcomes->size()
             ? 0
             : 1;
}

void ScalarTable(const std::vector<NamedRelease>& releases, int k,
                 size_t sensitive_column) {
  repro::Banner("Scalar view at k = " + std::to_string(k) +
                " (what comparative studies usually report)");
  TextTable table;
  table.SetHeader({"algorithm", "min |EC|", "avg |EC|", "C_avg", "DM",
                   "spread-loss", "l-div", "t-close", "suppressed"});
  for (const NamedRelease& release : releases) {
    double min_ec =
        KAnonymity(1).Measure(release.anonymization, release.partition);
    double avg_ec = AvgClassSize::PerTupleAverage(release.partition);
    auto c_avg = AvgClassSize::Normalized(release.partition, k);
    double dm = Discernibility::Total(release.anonymization,
                                      release.partition);
    auto spread = ClassSpreadLoss::TotalLoss(release.anonymization,
                                             release.partition);
    MDC_CHECK(c_avg.ok());
    MDC_CHECK(spread.ok());
    double ldiv = DistinctLDiversity(1, sensitive_column)
                      .Measure(release.anonymization, release.partition);
    double tclose =
        TCloseness(1.0, GroundDistance::kEqual, sensitive_column)
            .Measure(release.anonymization, release.partition);
    table.AddRow({release.name, FormatCompact(min_ec),
                  FormatCompact(avg_ec, 2), FormatCompact(*c_avg, 2),
                  FormatCompact(dm), FormatCompact(*spread, 1),
                  FormatCompact(ldiv), FormatCompact(tclose, 3),
                  std::to_string(release.anonymization.SuppressedCount())});
  }
  std::printf("%s", table.Render().c_str());
}

void VectorTables(const std::vector<NamedRelease>& releases) {
  repro::Banner("Vector view — pairwise P_cov on the class-size property");
  std::vector<PropertyVector> sizes;
  for (const NamedRelease& release : releases) {
    sizes.push_back(EquivalenceClassSizeVector(release.partition));
  }
  TextTable cov_table;
  std::vector<std::string> header = {"P_cov(row,col)"};
  for (const NamedRelease& release : releases) header.push_back(release.name);
  cov_table.SetHeader(header);
  for (size_t i = 0; i < releases.size(); ++i) {
    std::vector<std::string> row = {releases[i].name};
    for (size_t j = 0; j < releases.size(); ++j) {
      row.push_back(FormatCompact(CoverageIndex(sizes[i], sizes[j]), 2));
    }
    cov_table.AddRow(row);
  }
  std::printf("%s", cov_table.Render().c_str());

  repro::Banner("Vector view — per-algorithm bias report (class sizes)");
  TextTable bias_table;
  bias_table.SetHeader({"algorithm", "min", "max", "mean", "stddev",
                        "at-min frac", "gini"});
  for (size_t i = 0; i < releases.size(); ++i) {
    BiasReport bias = ComputeBias(sizes[i]);
    bias_table.AddRow({releases[i].name, FormatCompact(bias.min),
                       FormatCompact(bias.max), FormatCompact(bias.mean, 2),
                       FormatCompact(bias.stddev, 2),
                       FormatCompact(bias.fraction_at_min, 2),
                       FormatCompact(bias.gini, 3)});
  }
  std::printf("%s", bias_table.Render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // "--checkpoint-dir <dir>" is ours; everything else goes to the shared
  // budget-flag parser.
  std::string checkpoint_dir;
  std::vector<char*> filtered = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--checkpoint-dir" && i + 1 < argc) {
      checkpoint_dir = argv[++i];
      continue;
    }
    filtered.push_back(argv[i]);
  }
  RunContext budget_storage;
  RunContext* run = repro::ParseBudgetFlags(
      static_cast<int>(filtered.size()), filtered.data(), budget_storage);

  CensusConfig config;
  config.rows = 600;
  config.seed = 20260705;
  config.with_occupation = false;
  auto census = GenerateCensus(config);
  MDC_CHECK(census.ok());

  for (int k : {2, 5, 10}) {
    std::vector<NamedRelease> releases = RunAll(*census, k, run);
    ScalarTable(releases, k, census->sensitive_column);
    if (k == 5) VectorTables(releases);
    // Contract: every algorithm satisfies its k.
    for (const NamedRelease& release : releases) {
      double min_ec =
          KAnonymity(1).Measure(release.anonymization, release.partition);
      repro::CheckEq(release.name + " achieves k=" + std::to_string(k),
                     1.0, min_ec >= k ? 1.0 : 0.0);
    }
  }
  repro::Note("\nReading: scalar min |EC| is identical across algorithms at "
              "each k, yet the coverage matrix and bias reports separate "
              "them — the paper's anonymization bias made visible.");
  repro::ReportRunStats(run);
  int export_rc = 0;
  if (!checkpoint_dir.empty()) {
    export_rc = ExportReleases(*census, checkpoint_dir);
  }
  int repro_rc = repro::Finish();
  return repro_rc != 0 ? repro_rc : export_rc;
}
