// Tests for the three hierarchy kinds and the nesting verifier.

#include <gtest/gtest.h>

#include <algorithm>

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
  auto parsed = Interval::FromLabel("(25,35]");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->lo, 25.0);
  EXPECT_DOUBLE_EQ(parsed->hi, 35.0);
  EXPECT_FALSE(Interval::FromLabel("25-35").has_value());
  EXPECT_FALSE(Interval::FromLabel("(35,25]").has_value());
  EXPECT_FALSE(Interval::FromLabel("(a,b]").has_value());
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

}  // namespace
}  // namespace mdc
