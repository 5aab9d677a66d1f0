// Reproduces Table 4: the strict comparators based on dominance
// relationships, exercised on the paper's own class-size vectors and on
// canonical synthetic cases.

#include <cstdio>

#include "common/text_table.h"
#include "core/compare_engine.h"
#include "core/dominance.h"
#include "paper/paper_data.h"
#include "repro_util.h"

namespace {

using mdc::PropertyVector;

void Row(mdc::TextTable& table, const std::string& name,
         const PropertyVector& a, const PropertyVector& b) {
  table.AddRow({name, mdc::WeaklyDominates(a, b) ? "yes" : "no",
                mdc::StronglyDominates(a, b) ? "yes" : "no",
                mdc::NonDominated(a, b) ? "yes" : "no",
                mdc::DominanceRelationName(mdc::CompareDominance(a, b))});
}

}  // namespace

int main() {
  using namespace mdc;
  repro::Banner("Paper Table 4 — strict comparators (vector level)");

  PropertyVector sa = paper::ExpectedClassSizesT3a();
  PropertyVector sb = paper::ExpectedClassSizesT3b();
  PropertyVector s4 = paper::ExpectedClassSizesT4();

  TextTable table;
  table.SetHeader({"pair (D1 vs D2)", "D1 >= D2 (weak)", "D1 > D2 (strong)",
                   "D1 || D2", "relation"});
  Row(table, "T3b vs T3a", sb, sa);
  Row(table, "T3a vs T3b", sa, sb);
  Row(table, "T4 vs T3a", s4, sa);
  Row(table, "T3b vs T4", sb, s4);
  Row(table, "T3a vs T3a", sa, sa);
  std::printf("%s", table.Render().c_str());

  repro::CheckEq("T3b weakly dominates T3a", 1.0,
                 WeaklyDominates(sb, sa) ? 1.0 : 0.0);
  repro::CheckEq("T3b strongly dominates T3a", 1.0,
                 StronglyDominates(sb, sa) ? 1.0 : 0.0);
  repro::CheckEq("T3b and T4 are incomparable", 1.0,
                 NonDominated(sb, s4) ? 1.0 : 0.0);
  repro::CheckEq("weak dominance is reflexive", 1.0,
                 WeaklyDominates(sa, sa) ? 1.0 : 0.0);
  repro::CheckEq("strong dominance is irreflexive", 0.0,
                 StronglyDominates(sa, sa) ? 1.0 : 0.0);

  repro::Banner("Table 4 — set level (2-property anonymizations)");
  // Privacy vector + a toy utility vector per anonymization.
  PropertySet set1 = {sb, PropertyVector("u", {2, 2, 2, 2, 2, 2, 2, 2, 2, 2})};
  PropertySet set2 = {sa, PropertyVector("u", {1, 1, 1, 1, 1, 1, 1, 1, 1, 1})};
  repro::CheckEq("Y1 strongly dominates Y2 (all pairs dominate)", 1.0,
                 StronglyDominates(set1, set2) ? 1.0 : 0.0);
  PropertySet set3 = {sa, PropertyVector("u", {3, 3, 3, 3, 3, 3, 3, 3, 3, 3})};
  repro::CheckEq("Y1 and Y3 incomparable (split properties)", 1.0,
                 NonDominated(set1, set3) ? 1.0 : 0.0);

  repro::Banner("Packed engine cross-check (Table 4 relations)");
  const size_t n = sa.size();
  repro::CheckEq("packed weak(T3b,T3a) == scalar", 1.0,
                 PackedWeaklyDominates(sb.values().data(), sa.values().data(),
                                       n)
                     ? 1.0
                     : 0.0);
  repro::CheckEq("packed strong(T3b,T3a) == scalar", 1.0,
                 PackedStronglyDominates(sb.values().data(),
                                         sa.values().data(), n)
                     ? 1.0
                     : 0.0);
  repro::CheckEq("packed T3b || T4 == scalar", 1.0,
                 PackedNonDominated(sb.values().data(), s4.values().data(), n)
                     ? 1.0
                     : 0.0);
  repro::CheckEq(
      "packed relation(T4,T3a) == scalar", 1.0,
      PackedCompareDominance(s4.values().data(), sa.values().data(), n) ==
              CompareDominance(s4, sa)
          ? 1.0
          : 0.0);
  repro::CheckEq("packed set-level strong(Y1,Y2) == scalar", 1.0,
                 PackedSetStronglyDominates(set1, set2) ? 1.0 : 0.0);
  return repro::Finish();
}
