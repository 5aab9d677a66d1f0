// Reproduces Figure 3: how P_cov and P_spr are computed from two property
// vectors, on the §5.3 worked example where coverage ties and spread
// breaks the tie.

#include <cstdio>

#include "common/text_table.h"
#include "core/compare_engine.h"
#include "core/quality_index.h"
#include "repro_util.h"

int main() {
  using namespace mdc;
  repro::Banner("Paper Figure 3 — P_cov and P_spr computation");

  // §5.3's example vectors.
  PropertyVector d1("D1", {2, 2, 3, 4, 5});
  PropertyVector d2("D2", {3, 2, 4, 2, 3});

  TextTable table;
  table.SetHeader({"tuple", "D1", "D2", "D1>=D2", "max(D1-D2,0)",
                   "max(D2-D1,0)"});
  for (size_t i = 0; i < d1.size(); ++i) {
    table.AddRow({std::to_string(i + 1), FormatCompact(d1[i]),
                  FormatCompact(d2[i]), d1[i] >= d2[i] ? "yes" : "no",
                  FormatCompact(std::max(d1[i] - d2[i], 0.0)),
                  FormatCompact(std::max(d2[i] - d1[i], 0.0))});
  }
  std::printf("%s", table.Render().c_str());

  repro::CheckEq("P_cov(D1,D2)", 3.0 / 5.0, CoverageIndex(d1, d2));
  repro::CheckEq("P_cov(D2,D1)", 3.0 / 5.0, CoverageIndex(d2, d1));
  repro::CheckEq("P_spr(D1,D2)", 4.0, SpreadIndex(d1, d2));
  repro::CheckEq("P_spr(D2,D1)", 2.0, SpreadIndex(d2, d1));
  repro::CheckEq("coverage cannot separate them", 0.0,
                 (CoverageBetter(d1, d2) || CoverageBetter(d2, d1)) ? 1.0
                                                                    : 0.0);
  repro::CheckEq("spread prefers D1", 1.0,
                 SpreadBetter(d1, d2) ? 1.0 : 0.0);

  repro::Banner("Section 5.3 — 2-anonymous beats 3-anonymous by spread");
  PropertyVector three_anon(
      "3-anon", {3, 3, 3, 5, 5, 5, 5, 5, 3, 3, 3, 4, 4, 4, 4});
  PropertyVector two_anon(
      "2-anon", {2, 2, 6, 6, 6, 6, 6, 6, 3, 3, 3, 4, 4, 4, 4});
  repro::CheckEq("P_spr(3-anon, 2-anon)", 2.0,
                 SpreadIndex(three_anon, two_anon));
  repro::CheckEq("P_spr(2-anon, 3-anon)", 8.0,
                 SpreadIndex(two_anon, three_anon));
  repro::CheckEq("2-anon spread-better (counter to the k ordering)", 1.0,
                 SpreadBetter(two_anon, three_anon) ? 1.0 : 0.0);
  repro::CheckEq("coverage agrees (paper's remark)", 1.0,
                 CoverageBetter(two_anon, three_anon) ? 1.0 : 0.0);

  repro::Banner("Packed engine cross-check (P_cov / P_spr, fused pass)");
  auto packed = [](const PropertyVector& first, const PropertyVector& second) {
    auto matrix = PropertyMatrix::FromSet({first, second});
    MDC_CHECK(matrix.ok());
    auto ranked = AllPairsCompare(*matrix);
    MDC_CHECK(ranked.ok());
    return ranked->pairs[0];
  };
  const PairComparison pair = packed(d1, d2);
  repro::CheckEq("packed P_cov(D1,D2) == scalar", CoverageIndex(d1, d2),
                 pair.cov12, /*tolerance=*/0.0);
  repro::CheckEq("packed P_cov(D2,D1) == scalar", CoverageIndex(d2, d1),
                 pair.cov21, /*tolerance=*/0.0);
  repro::CheckEq("packed P_spr(D1,D2) == scalar", SpreadIndex(d1, d2),
                 pair.spr12, /*tolerance=*/0.0);
  repro::CheckEq("packed P_spr(D2,D1) == scalar", SpreadIndex(d2, d1),
                 pair.spr21, /*tolerance=*/0.0);
  const PairComparison anon_pair = packed(two_anon, three_anon);
  repro::CheckEq("packed spread still prefers 2-anon", 1.0,
                 anon_pair.spr12 > anon_pair.spr21 ? 1.0 : 0.0);
  return repro::Finish();
}
