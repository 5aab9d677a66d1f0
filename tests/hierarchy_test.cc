// Tests for the three hierarchy kinds, the nesting verifier, and the
// coverage law: Covers and CountCovered, read off the generalization
// chain, agree with each kind's former rule (coverage_reference.h) on
// every label a level produces, except in the declared cases pinned at
// the end.

#include <gtest/gtest.h>

#include <algorithm>

#include "coverage_reference.h"
#include "datagen/census_generator.h"
#include "hierarchy/interval_hierarchy.h"
#include "hierarchy/suffix_hierarchy.h"
#include "hierarchy/taxonomy_hierarchy.h"
#include "paper/paper_data.h"

namespace mdc {
namespace {

// -------------------------------------------------------------- interval --

IntervalHierarchy AgeChainA() {
  auto h = IntervalHierarchy::Create({{5.0, 10.0}, {15.0, 20.0}});
  MDC_CHECK(h.ok());
  return std::move(h).value();
}

TEST(IntervalHierarchyTest, PaperLabels) {
  IntervalHierarchy h = AgeChainA();
  EXPECT_EQ(h.height(), 3);
  EXPECT_EQ(*h.Generalize(Value(int64_t{28}), 0), "28");
  EXPECT_EQ(*h.Generalize(Value(int64_t{28}), 1), "(25,35]");
  EXPECT_EQ(*h.Generalize(Value(int64_t{28}), 2), "(15,35]");
  EXPECT_EQ(*h.Generalize(Value(int64_t{28}), 3), "*");
  EXPECT_EQ(*h.Generalize(Value(int64_t{41}), 1), "(35,45]");
  EXPECT_EQ(*h.Generalize(Value(int64_t{41}), 2), "(35,55]");
  EXPECT_EQ(*h.Generalize(Value(int64_t{55}), 1), "(45,55]");
}

TEST(IntervalHierarchyTest, HalfOpenBoundaries) {
  IntervalHierarchy h = AgeChainA();
  // Bins are (lo, hi]: 35 belongs to (25,35], 35.5 to (35,45].
  EXPECT_EQ(*h.Generalize(Value(int64_t{35}), 1), "(25,35]");
  EXPECT_EQ(*h.Generalize(Value(35.5), 1), "(35,45]");
  EXPECT_EQ(*h.Generalize(Value(int64_t{25}), 1), "(15,25]");
}

TEST(IntervalHierarchyTest, Covers) {
  IntervalHierarchy h = AgeChainA();
  EXPECT_TRUE(h.Covers("(25,35]", Value(int64_t{28})));
  EXPECT_TRUE(h.Covers("(25,35]", Value(int64_t{35})));
  EXPECT_FALSE(h.Covers("(25,35]", Value(int64_t{25})));
  EXPECT_FALSE(h.Covers("(25,35]", Value(int64_t{36})));
  EXPECT_TRUE(h.Covers("*", Value(int64_t{999})));
  EXPECT_TRUE(h.Covers("28", Value(int64_t{28})));
  EXPECT_FALSE(h.Covers("28", Value(int64_t{29})));
  EXPECT_FALSE(h.Covers("(25,35]", Value("28")));  // Strings never covered.
}

TEST(IntervalHierarchyTest, RejectsNonNesting) {
  // Width 15 is not a multiple of 10.
  EXPECT_FALSE(IntervalHierarchy::Create({{0.0, 10.0}, {0.0, 15.0}}).ok());
  // Origins misaligned: 20@3 vs 10@0.
  EXPECT_FALSE(IntervalHierarchy::Create({{0.0, 10.0}, {3.0, 20.0}}).ok());
  // Widths must strictly increase.
  EXPECT_FALSE(IntervalHierarchy::Create({{0.0, 10.0}, {0.0, 10.0}}).ok());
  // Negative width.
  EXPECT_FALSE(IntervalHierarchy::Create({{0.0, -1.0}}).ok());
}

TEST(IntervalHierarchyTest, AlignedOriginsAccepted) {
  // 20@15 nests in 10@5: offset (15-5)/10 = 1, ratio 2.
  EXPECT_TRUE(IntervalHierarchy::Create({{5.0, 10.0}, {15.0, 20.0}}).ok());
}

TEST(IntervalHierarchyTest, LevelOutOfRange) {
  IntervalHierarchy h = AgeChainA();
  EXPECT_FALSE(h.Generalize(Value(int64_t{28}), 4).ok());
  EXPECT_FALSE(h.Generalize(Value(int64_t{28}), -1).ok());
}

TEST(IntervalHierarchyTest, RejectsStringValue) {
  IntervalHierarchy h = AgeChainA();
  EXPECT_FALSE(h.Generalize(Value("28"), 1).ok());
}

TEST(IntervalLabelTest, ParseRoundTrip) {
  Interval i{25, 35};
  EXPECT_EQ(i.ToLabel(), "(25,35]");
}

// ---------------------------------------------------------------- suffix --

TEST(SuffixHierarchyTest, PaperLabels) {
  auto h = SuffixHierarchy::Create(5);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->height(), 5);
  EXPECT_EQ(*h->Generalize(Value("13053"), 0), "13053");
  EXPECT_EQ(*h->Generalize(Value("13053"), 1), "1305*");
  EXPECT_EQ(*h->Generalize(Value("13053"), 2), "130**");
  EXPECT_EQ(*h->Generalize(Value("13053"), 3), "13***");
  EXPECT_EQ(*h->Generalize(Value("13053"), 5), "*");
}

TEST(SuffixHierarchyTest, IntValuesZeroPadded) {
  auto h = SuffixHierarchy::Create(5);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(*h->Generalize(Value(int64_t{982}), 1), "0098*");
}

TEST(SuffixHierarchyTest, Covers) {
  auto h = SuffixHierarchy::Create(5);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->Covers("1305*", Value("13053")));
  EXPECT_TRUE(h->Covers("1305*", Value("13052")));
  EXPECT_FALSE(h->Covers("1305*", Value("13250")));
  EXPECT_TRUE(h->Covers("13***", Value("13269")));
  EXPECT_TRUE(h->Covers("*", Value("99999")));
  EXPECT_FALSE(h->Covers("1305*", Value("130")));  // Wrong length.
}

TEST(SuffixHierarchyTest, WrongLengthRejected) {
  auto h = SuffixHierarchy::Create(5);
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(h->Generalize(Value("130"), 1).ok());
  EXPECT_FALSE(h->Generalize(Value(2.5), 1).ok());
}

TEST(SuffixHierarchyTest, CreateValidation) {
  EXPECT_FALSE(SuffixHierarchy::Create(0).ok());
  EXPECT_FALSE(SuffixHierarchy::Create(-2).ok());
}

// -------------------------------------------------------------- taxonomy --

TEST(TaxonomyHierarchyTest, PaperMaritalTree) {
  auto tree = paper::MaritalTaxonomy();
  EXPECT_EQ(tree->height(), 2);
  EXPECT_EQ(tree->leaf_count(), 6u);
  EXPECT_EQ(*tree->Generalize(Value("CF-Spouse"), 0), "CF-Spouse");
  EXPECT_EQ(*tree->Generalize(Value("CF-Spouse"), 1), "Married");
  EXPECT_EQ(*tree->Generalize(Value("CF-Spouse"), 2), "*");
  EXPECT_EQ(*tree->Generalize(Value("Spouse Absent"), 1), "Not Married");
}

TEST(TaxonomyHierarchyTest, Covers) {
  auto tree = paper::MaritalTaxonomy();
  EXPECT_TRUE(tree->Covers("Married", Value("CF-Spouse")));
  EXPECT_TRUE(tree->Covers("Married", Value("Spouse Present")));
  EXPECT_FALSE(tree->Covers("Married", Value("Divorced")));
  EXPECT_TRUE(tree->Covers("*", Value("Divorced")));
  EXPECT_TRUE(tree->Covers("Divorced", Value("Divorced")));
  EXPECT_FALSE(tree->Covers("Divorced", Value("Separated")));
  EXPECT_FALSE(tree->Covers("Nonexistent", Value("Divorced")));
}

TEST(TaxonomyHierarchyTest, LeavesUnder) {
  auto tree = paper::MaritalTaxonomy();
  EXPECT_EQ(tree->LeavesUnder("*"), 6u);
  EXPECT_EQ(tree->LeavesUnder("Married"), 2u);
  EXPECT_EQ(tree->LeavesUnder("Not Married"), 4u);
  EXPECT_EQ(tree->LeavesUnder("Divorced"), 1u);
  EXPECT_EQ(tree->LeavesUnder("Nope"), 0u);
}

TEST(TaxonomyHierarchyTest, NonLeafValueRejected) {
  auto tree = paper::MaritalTaxonomy();
  EXPECT_FALSE(tree->Generalize(Value("Married"), 1).ok());
  EXPECT_FALSE(tree->Generalize(Value("Unknown"), 1).ok());
  EXPECT_FALSE(tree->Generalize(Value(int64_t{1}), 1).ok());
}

TEST(TaxonomyHierarchyTest, BuilderValidation) {
  TaxonomyHierarchy::Builder duplicate;
  duplicate.Add("A", "*").Add("A", "*");
  EXPECT_FALSE(duplicate.Build().ok());

  TaxonomyHierarchy::Builder orphan;
  orphan.Add("A", "missing-parent");
  EXPECT_FALSE(orphan.Build().ok());

  TaxonomyHierarchy::Builder empty;
  EXPECT_FALSE(empty.Build().ok());

  TaxonomyHierarchy::Builder empty_label;
  empty_label.Add("", "*");
  EXPECT_FALSE(empty_label.Build().ok());
}

TEST(TaxonomyHierarchyTest, UnbalancedTreeClampsAtRoot) {
  TaxonomyHierarchy::Builder builder;
  builder.Add("shallow", "*")
      .Add("group", "*")
      .Add("deep1", "group")
      .Add("deep2", "group");
  auto tree = builder.Build();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->height(), 2);
  // The shallow leaf reaches the root already at level 1 and stays there.
  EXPECT_EQ(*tree->Generalize(Value("shallow"), 1), "*");
  EXPECT_EQ(*tree->Generalize(Value("shallow"), 2), "*");
  EXPECT_EQ(*tree->Generalize(Value("deep1"), 1), "group");
}

TEST(TaxonomyHierarchyTest, LeavesList) {
  auto tree = paper::MaritalTaxonomy();
  std::vector<std::string> leaves = tree->Leaves();
  EXPECT_EQ(leaves.size(), 6u);
  EXPECT_NE(std::find(leaves.begin(), leaves.end(), "CF-Spouse"),
            leaves.end());
}

// ---------------------------------------------------------------- verify --

TEST(VerifyNestingTest, AcceptsPaperHierarchies) {
  std::vector<Value> ages;
  for (int64_t a : {28, 41, 39, 26, 50, 55, 49, 31, 42, 47}) {
    ages.emplace_back(a);
  }
  EXPECT_TRUE(VerifyNesting(*paper::AgeHierarchyA(), ages).ok());
  EXPECT_TRUE(VerifyNesting(*paper::AgeHierarchyB(), ages).ok());

  std::vector<Value> zips = {Value("13053"), Value("13268"), Value("13253"),
                             Value("13250"), Value("13052"), Value("13269")};
  EXPECT_TRUE(VerifyNesting(*paper::ZipHierarchy(), zips).ok());

  std::vector<Value> maritals = {Value("CF-Spouse"), Value("Separated"),
                                 Value("Never Married"), Value("Divorced"),
                                 Value("Spouse Absent"),
                                 Value("Spouse Present")};
  EXPECT_TRUE(VerifyNesting(*paper::MaritalTaxonomy(), maritals).ok());
}

TEST(VerifyNestingTest, RejectsValueOutsideDomain) {
  std::vector<Value> maritals = {Value("CF-Spouse"), Value("Martian")};
  auto status = VerifyNesting(*paper::MaritalTaxonomy(), maritals);
  EXPECT_FALSE(status.ok());
}

// ------------------------------------------------------------ coverage --

namespace ref = coverage_reference;

// Ints and halves over [lo, hi], and a few reals beside bin edges.
std::vector<Value> NumberDomain(int64_t lo, int64_t hi) {
  std::vector<Value> values;
  for (int64_t v = lo; v <= hi; ++v) {
    values.emplace_back(v);
    values.emplace_back(static_cast<double>(v) + 0.5);
  }
  for (double v : {24.999, 25.001, 34.75, 35.0000001, -0.25}) {
    values.emplace_back(v);
  }
  return values;
}

CensusData Census(size_t rows, uint64_t seed) {
  CensusConfig config;
  config.rows = rows;
  config.seed = seed;
  auto census = GenerateCensus(config);
  MDC_CHECK(census.ok());
  return std::move(census).value();
}

TEST(CoversLawTest, PaperAgeChains) {
  const std::vector<Value> ages = NumberDomain(-5, 105);
  for (const auto& chain : {paper::AgeHierarchyA(), paper::AgeHierarchyB()}) {
    SCOPED_TRACE(chain->Describe());
    EXPECT_GT(ref::ExpectCoversMatches(*chain, ages, ref::IntervalCovers),
              0u);
  }
}

TEST(CoversLawTest, CensusAgeChain) {
  const CensusData census = Census(50, 3);
  EXPECT_GT(ref::ExpectCoversMatches(*census.hierarchies.ForColumn(0),
                                     NumberDomain(0, 100),
                                     ref::IntervalCovers),
            0u);
}

TEST(CoversLawTest, SuffixOverIntsAndStrings) {
  auto zip = SuffixHierarchy::Create(5);
  ASSERT_TRUE(zip.ok());
  const CensusData census = Census(400, 11);
  std::vector<Value> values;
  for (size_t r = 0; r < census.data->row_count(); ++r) {
    values.push_back(census.data->cell(r, 1));  // Census zips, strings.
  }
  for (int64_t code : {0, 7, 982, 13052, 13053, 13250, 13299, 99999}) {
    values.emplace_back(code);  // Zero-padded to five digits.
  }
  // Out of the domain: a real, a short code, a long one.
  for (const Value& outside : {Value(2.5), Value("130"), Value("130531")}) {
    values.push_back(outside);
  }
  EXPECT_GT(ref::ExpectCoversMatches(
                *zip, values,
                [&](const std::string& label, const Value& value) {
                  return ref::SuffixCovers(*zip, label, value);
                }),
            0u);
}

TEST(CoversLawTest, PaperAndCensusTaxonomies) {
  const auto marital = paper::MaritalTaxonomy();
  const CensusData census = Census(50, 3);
  std::vector<const ValueHierarchy*> trees = {marital.get()};
  for (size_t column : {2, 3, 4}) {
    trees.push_back(census.hierarchies.ForColumn(column));
  }
  for (const ValueHierarchy* hierarchy : trees) {
    const auto& tree = dynamic_cast<const TaxonomyHierarchy&>(*hierarchy);
    SCOPED_TRACE(tree.Describe());
    const std::vector<std::string> leaves = tree.Leaves();
    std::vector<Value> values(leaves.begin(), leaves.end());
    // Inner nodes, unknown text and a number are outside the domain.
    for (const Value& outside :
         {Value("*"), Value("Married"), Value("Martian"), Value(int64_t{1})}) {
      values.push_back(outside);
    }
    const ref::Taxonomy& reference = ref::KnownTaxonomy(tree);
    EXPECT_GT(ref::ExpectCoversMatches(
                  tree, values,
                  [&](const std::string& label, const Value& value) {
                    return reference.Covers(label, value);
                  }),
              0u);
  }
}

TEST(CoversLawTest, UnbalancedTree) {
  const ref::Edges edges = {
      {"shallow", "*"}, {"group", "*"}, {"deep1", "group"}, {"deep2", "group"}};
  TaxonomyHierarchy::Builder builder;
  for (const auto& [child, parent] : edges) builder.Add(child, parent);
  auto tree = builder.Build();
  ASSERT_TRUE(tree.ok());
  const ref::Taxonomy reference(edges);
  const std::vector<Value> values = {Value("shallow"), Value("deep1"),
                                     Value("deep2"), Value("group")};
  EXPECT_EQ(ref::ExpectCoversMatches(
                *tree, values,
                [&](const std::string& label, const Value& value) {
                  return reference.Covers(label, value);
                }),
            5u * 4u);  // shallow, deep1, deep2, group, * × four values.
  // "*" is the shallow leaf's level-1 label and covers all three leaves.
  EXPECT_EQ(CountCovered(*tree, values, std::vector<std::string>{"*"}),
            std::vector<size_t>{3});
}

// Declared changes: labels on which the former per-kind rules and the
// chain disagree. Each is a label no level gives the value.

TEST(CoversDeclaredChangeTest, RoundedIntervalLabelCoversItsOwnValues) {
  // 6 × 0.1 is 0.6000000000000001: its bin prints "(0.4,0.6]", which
  // parses back to an upper bound below the value.
  auto hierarchy = IntervalHierarchy::Create({{0.0, 0.2}});
  ASSERT_TRUE(hierarchy.ok());
  std::vector<Value> values;
  for (int i = 1; i <= 6; ++i) values.emplace_back(i * 0.1);
  const Value& six = values.back();
  ASSERT_EQ(*hierarchy->Generalize(six, 1), "(0.4,0.6]");
  EXPECT_TRUE(hierarchy->Covers("(0.4,0.6]", six));
  EXPECT_FALSE(ref::IntervalCovers("(0.4,0.6]", six));
  EXPECT_TRUE(VerifyNesting(*hierarchy, values).ok());
  EXPECT_EQ(CountCovered(*hierarchy, values,
                         std::vector<std::string>{"(0,0.2]", "(0.2,0.4]",
                                                  "(0.4,0.6]"}),
            (std::vector<size_t>{2, 2, 2}));
}

TEST(CoversDeclaredChangeTest, IntervalLabelThatIsNoLevelsBin) {
  IntervalHierarchy h = AgeChainA();
  EXPECT_FALSE(h.Covers("(20,30]", Value(int64_t{28})));
  EXPECT_TRUE(ref::IntervalCovers("(20,30]", Value(int64_t{28})));
}

TEST(CoversDeclaredChangeTest, SuffixLabelWithStarInsideTheCode) {
  auto h = SuffixHierarchy::Create(5);
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(h->Covers("13*53", Value("13053")));
  EXPECT_TRUE(ref::SuffixCovers(*h, "13*53", Value("13053")));
}

TEST(CoversDeclaredChangeTest, SuffixCodeThatContainsAStar) {
  auto h = SuffixHierarchy::Create(5);
  ASSERT_TRUE(h.ok());
  // "1*053" is its own level-0 label; it no longer stands for "13053".
  EXPECT_TRUE(h->Covers("1*053", Value("1*053")));
  EXPECT_FALSE(h->Covers("1*053", Value("13053")));
  EXPECT_TRUE(ref::SuffixCovers(*h, "1*053", Value("13053")));
}

}  // namespace
}  // namespace mdc
