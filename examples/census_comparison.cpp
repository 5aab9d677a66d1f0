// Census-scale comparison: five disclosure-control algorithms on 1,000
// rows of synthetic census microdata, ranked three ways — by scalar
// utility (the pre-paper practice), by the paper's binary quality indices,
// and by a tournament over the hypervolume index.

#include <cstdio>
#include <cmath>
#include <string>
#include <vector>

#include "anonymize/datafly.h"
#include "anonymize/mondrian.h"
#include "anonymize/optimal_lattice.h"
#include "anonymize/samarati.h"
#include "anonymize/stochastic.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "core/properties.h"
#include "core/quality_index.h"
#include "datagen/census_generator.h"
#include "utility/discernibility.h"
#include "utility/loss_metric.h"

using namespace mdc;

namespace {

struct NamedRelease {
  std::string name;
  Anonymization anonymization;
  EquivalencePartition partition;
};

}  // namespace

int main() {
  CensusConfig config;
  config.rows = 1000;
  config.seed = 7;
  config.with_occupation = false;
  auto census = GenerateCensus(config);
  MDC_CHECK(census.ok());

  const int k = 5;
  SuppressionBudget budget{0.02};
  std::vector<NamedRelease> releases;

  {
    DataflyConfig c{k, budget};
    auto r = DataflyAnonymize(census->data, census->hierarchies, c);
    MDC_CHECK(r.ok());
    releases.push_back({"datafly", std::move(r->evaluation.anonymization),
                        std::move(r->evaluation.partition)});
  }
  {
    SamaratiConfig c{k, budget};
    auto r = SamaratiAnonymize(census->data, census->hierarchies, c);
    MDC_CHECK(r.ok());
    releases.push_back({"samarati", std::move(r->best.anonymization),
                        std::move(r->best.partition)});
  }
  {
    OptimalSearchConfig c;
    c.k = k;
    c.suppression = budget;
    auto r = OptimalLatticeSearch(census->data, census->hierarchies, c);
    MDC_CHECK(r.ok());
    releases.push_back({"optimal", std::move(r->best.anonymization),
                        std::move(r->best.partition)});
  }
  {
    StochasticConfig c;
    c.k = k;
    c.suppression = budget;
    c.seed = 5;
    auto r = StochasticAnonymize(census->data, census->hierarchies, c);
    MDC_CHECK(r.ok());
    releases.push_back({"stochastic", std::move(r->best.anonymization),
                        std::move(r->best.partition)});
  }
  {
    MondrianConfig c{k};
    auto r = MondrianAnonymize(census->data, c);
    MDC_CHECK(r.ok());
    releases.push_back({"mondrian", std::move(r->anonymization),
                        std::move(r->partition)});
  }

  // --- Ranking 1: scalar utility (classic comparative study). ---
  std::printf("Ranking 1 — scalar utility at k=%d (lower DM is better):\n",
              k);
  TextTable scalar;
  scalar.SetHeader({"algorithm", "DM", "class-spread loss", "#classes"});
  for (const NamedRelease& release : releases) {
    auto spread = ClassSpreadLoss::TotalLoss(release.anonymization,
                                             release.partition);
    MDC_CHECK(spread.ok());
    scalar.AddRow({release.name,
                   FormatCompact(Discernibility::Total(
                       release.anonymization, release.partition)),
                   FormatCompact(*spread, 1),
                   std::to_string(release.partition.class_count())});
  }
  std::printf("%s\n", scalar.Render().c_str());

  // --- Ranking 2: pairwise coverage on per-tuple privacy. ---
  std::printf("Ranking 2 — pairwise P_cov on class sizes (row vs col):\n");
  std::vector<PropertyVector> sizes;
  for (const NamedRelease& release : releases) {
    sizes.push_back(EquivalenceClassSizeVector(release.partition));
  }
  TextTable cov;
  std::vector<std::string> header = {""};
  for (const NamedRelease& release : releases) header.push_back(release.name);
  cov.SetHeader(header);
  std::vector<int> wins(releases.size(), 0);
  for (size_t i = 0; i < releases.size(); ++i) {
    std::vector<std::string> row = {releases[i].name};
    for (size_t j = 0; j < releases.size(); ++j) {
      row.push_back(FormatCompact(CoverageIndex(sizes[i], sizes[j]), 2));
      if (i != j && CoverageBetter(sizes[i], sizes[j])) ++wins[i];
    }
    cov.AddRow(row);
  }
  std::printf("%s", cov.Render().c_str());
  for (size_t i = 0; i < releases.size(); ++i) {
    std::printf("  %-10s cov-wins: %d\n", releases[i].name.c_str(), wins[i]);
  }

  // --- Ranking 3: hypervolume tournament (positive vectors). ---
  std::printf("\nRanking 3 — hypervolume tournament on linkage privacy:\n");
  std::vector<int> hv_wins(releases.size(), 0);
  std::vector<PropertyVector> privacy;
  for (const NamedRelease& release : releases) {
    // 1 + class size keeps entries > 1 so products stay finite-positive
    // in log space... use log-scaled sizes to avoid overflow.
    std::vector<double> logs;
    const PropertyVector sizes = EquivalenceClassSizeVector(release.partition);
    for (double v : sizes.values()) logs.push_back(1.0 + std::log(v));
    privacy.push_back(PropertyVector("log-size", std::move(logs)));
  }
  for (size_t i = 0; i < releases.size(); ++i) {
    for (size_t j = 0; j < releases.size(); ++j) {
      if (i == j) continue;
      // Compare spread of log-sizes as an overflow-safe hv surrogate on
      // 1000 dimensions.
      if (SpreadBetter(privacy[i], privacy[j])) ++hv_wins[i];
    }
  }
  for (size_t i = 0; i < releases.size(); ++i) {
    std::printf("  %-10s tournament wins: %d\n", releases[i].name.c_str(),
                hv_wins[i]);
  }
  std::printf(
      "\nTakeaway: all five releases are %d-anonymous; the rankings above\n"
      "disagree because each quality index weighs the anonymization bias\n"
      "differently — the paper's core observation.\n",
      k);
  return 0;
}
