// Tests for core/pareto.h and anonymize/pareto_lattice.h (§7 extension).
// The front extraction runs on the packed kernels; its oracle here is the
// scalar set-level dominance of core/dominance.h.

#include "core/pareto.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "anonymize/pareto_lattice.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "paper/paper_data.h"

namespace mdc {
namespace {

PropertyVector V(std::vector<double> values) {
  return PropertyVector("v", std::move(values));
}

// Unwraps a front extraction that must succeed.
std::vector<size_t> Front(const StatusOr<std::vector<size_t>>& front) {
  EXPECT_TRUE(front.ok()) << front.status().ToString();
  return front.ok() ? *front : std::vector<size_t>{};
}

TEST(ParetoFrontScalarTest, BasicFront) {
  // Points: (privacy, utility). (3,1) and (1,3) trade off; (2,2) also
  // non-dominated; (1,1) dominated by all.
  std::vector<std::vector<double>> points = {
      {3, 1}, {1, 3}, {2, 2}, {1, 1}};
  EXPECT_EQ(Front(ParetoFrontScalar(points, {})),
            (std::vector<size_t>{0, 1, 2}));
}

TEST(ParetoFrontScalarTest, DuplicatesSurvive) {
  std::vector<std::vector<double>> points = {{2, 2}, {2, 2}, {1, 1}};
  EXPECT_EQ(Front(ParetoFrontScalar(points, {})),
            (std::vector<size_t>{0, 1}));
}

TEST(ParetoFrontScalarTest, SinglePoint) {
  EXPECT_EQ(Front(ParetoFrontScalar({{5, 5}}, {})), (std::vector<size_t>{0}));
  EXPECT_TRUE(Front(ParetoFrontScalar({}, {})).empty());
}

TEST(ParetoFrontTest, SetDominanceFront) {
  // Candidate property sets over 2 tuples and 2 properties.
  PropertySet a = {V({3, 3}), V({1, 1})};
  PropertySet b = {V({2, 2}), V({2, 2})};  // Trade-off with a.
  PropertySet c = {V({2, 2}), V({1, 1})};  // Dominated by both a-ish... by b.
  EXPECT_EQ(Front(ParetoFront({a, b, c}, {})), (std::vector<size_t>{0, 1}));
}

TEST(ParetoFrontTest, VectorFrontRetainsScalarTies) {
  // The paper's key: identical scalar min (3 = 3) but incomparable
  // vectors — both stay on the vector front.
  PropertySet t3a_like = {paper::ExpectedClassSizesT3a()};
  PropertySet t4_like = {paper::ExpectedClassSizesT4()};
  // T4 strongly dominates T3a, so only T4 stays...
  EXPECT_EQ(Front(ParetoFront({t3a_like, t4_like}, {})),
            (std::vector<size_t>{1}));
  PropertySet t3b_like = {paper::ExpectedClassSizesT3b()};
  // T3b || T4: both survive.
  EXPECT_EQ(Front(ParetoFront({t3b_like, t4_like}, {})),
            (std::vector<size_t>{0, 1}));
}

TEST(ParetoFrontTest, MisalignedInputsAreInvalidArgument) {
  PropertySet pair = {V({1, 2}), V({3, 4})};
  PropertySet single = {V({1, 2})};
  PropertySet short_second = {V({1, 2}), V({3})};
  EXPECT_EQ(ParetoFront({pair, single}, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParetoFront({pair, short_second}, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParetoFrontScalar({{1, 2}, {1}}, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParetoFrontScalar({{1, 2}, {1, 2, 3}}, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ParetoFrontTest, StepBudgetBelowCandidateCountIsExhausted) {
  const std::vector<PropertySet> candidates = {
      {V({3, 1})}, {V({1, 3})}, {V({1, 1})}};
  const std::vector<std::vector<double>> points = {{3, 1}, {1, 3}, {1, 1}};
  for (uint64_t budget : {1u, 2u}) {
    RunContext run;
    run.set_max_steps(budget);
    EXPECT_EQ(ParetoFront(candidates, {}, &run).status().code(),
              StatusCode::kResourceExhausted)
        << "budget=" << budget;
    RunContext scalar_run;
    scalar_run.set_max_steps(budget);
    EXPECT_EQ(ParetoFrontScalar(points, {}, &scalar_run).status().code(),
              StatusCode::kResourceExhausted)
        << "budget=" << budget;
  }
  // One step per candidate is enough.
  RunContext run;
  run.set_max_steps(candidates.size());
  EXPECT_EQ(Front(ParetoFront(candidates, {}, &run)),
            (std::vector<size_t>{0, 1}));
  RunContext scalar_run;
  scalar_run.set_max_steps(points.size());
  EXPECT_EQ(Front(ParetoFrontScalar(points, {}, &scalar_run)),
            (std::vector<size_t>{0, 1}));
}

// Random candidates over small integers, so exact ties, weak dominance
// and strong dominance all occur.
std::vector<PropertySet> RandomCandidates(Rng& rng, size_t count,
                                          size_t arity, size_t length) {
  std::vector<PropertySet> candidates(count);
  for (PropertySet& candidate : candidates) {
    for (size_t p = 0; p < arity; ++p) {
      std::vector<double> values(length);
      for (double& v : values) v = static_cast<double>(rng.NextInt(1, 3));
      candidate.push_back(V(std::move(values)));
    }
  }
  return candidates;
}

std::vector<std::vector<double>> RandomPoints(Rng& rng, size_t count,
                                              size_t dims) {
  std::vector<std::vector<double>> points(count);
  for (std::vector<double>& point : points) {
    for (size_t d = 0; d < dims; ++d) {
      point.push_back(static_cast<double>(rng.NextInt(0, 4)));
    }
  }
  return points;
}

TEST(ParetoFrontTest, FrontsAndCountersAreThreadInvariant) {
  Rng rng(1618);
  const std::vector<PropertySet> candidates =
      RandomCandidates(rng, 40, 2, 6);
  const std::vector<std::vector<double>> points = RandomPoints(rng, 60, 3);
  std::vector<size_t> reference_front;
  std::vector<size_t> reference_scalar_front;
  std::string reference_counters;
  for (int threads : {1, 2, 4, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ParetoOptions options;
    options.threads = threads;
    metrics::ResetForTest();
    std::vector<size_t> front = Front(ParetoFront(candidates, options));
    std::vector<size_t> scalar_front =
        Front(ParetoFrontScalar(points, options));
    std::string counters = metrics::Snapshot().DeterministicCountersText();
    EXPECT_NE(counters.find("cmp.pareto.candidates"), std::string::npos);
    if (threads == 1) {
      reference_front = front;
      reference_scalar_front = scalar_front;
      reference_counters = counters;
    } else {
      EXPECT_EQ(front, reference_front);
      EXPECT_EQ(scalar_front, reference_scalar_front);
      EXPECT_EQ(counters, reference_counters);
    }
  }
}

// The oracle: the front under a scalar dominance predicate, where
// `dominates(j, i)` answers "does candidate j strongly dominate i".
template <typename DominatesFn>
std::vector<size_t> OracleFront(size_t count, const DominatesFn& dominates) {
  std::vector<size_t> front;
  for (size_t i = 0; i < count; ++i) {
    bool dominated = false;
    for (size_t j = 0; j < count && !dominated; ++j) {
      dominated = i != j && dominates(j, i);
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

TEST(ParetoFrontTest, RandomizedSweepMatchesScalarOracle) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 6151);
    const size_t count = 1 + rng.NextBelow(24);
    const size_t arity = 1 + rng.NextBelow(3);
    const size_t length = 1 + rng.NextBelow(9);
    const std::vector<PropertySet> candidates =
        RandomCandidates(rng, count, arity, length);
    ParetoOptions options;
    options.threads = 1 + static_cast<int>(rng.NextBelow(4));
    // Set-level strong dominance of dominance.h.
    EXPECT_EQ(Front(ParetoFront(candidates, options)),
              OracleFront(count, [&](size_t j, size_t i) {
                return StronglyDominates(candidates[j], candidates[i]);
              }));
    // Vector-level strong dominance of dominance.h is coordinate
    // dominance of the objective tuples.
    const std::vector<std::vector<double>> points =
        RandomPoints(rng, count, 1 + rng.NextBelow(4));
    EXPECT_EQ(Front(ParetoFrontScalar(points, options)),
              OracleFront(count, [&](size_t j, size_t i) {
                return StronglyDominates(V(points[j]), V(points[i]));
              }));
  }
}

TEST(KneePointTest, PicksBalancedPoint) {
  std::vector<std::vector<double>> points = {
      {10, 0}, {0, 10}, {8, 8}, {5, 5}};
  auto knee = KneePoint(points);
  ASSERT_TRUE(knee.ok());
  EXPECT_EQ(*knee, 2u);  // (8,8) is closest to the normalized ideal.
}

TEST(KneePointTest, Validation) {
  EXPECT_FALSE(KneePoint({}).ok());
  EXPECT_FALSE(KneePoint({{1, 2}, {1}}).ok());
  auto degenerate = KneePoint({{1, 1}, {1, 1}});
  ASSERT_TRUE(degenerate.ok());  // Constant coordinates normalize to 0.
  EXPECT_EQ(*degenerate, 0u);
}

TEST(ParetoLatticeTest, PaperLatticeFronts) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  auto result = ParetoLatticeSearch(*data, *hierarchies);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->candidates.size(), 72u);  // 6*4*3 lattice nodes.
  EXPECT_FALSE(result->vector_front.empty());
  EXPECT_FALSE(result->scalar_front.empty());

  // The bottom node (no generalization) maximizes utility: it must be on
  // both fronts.
  size_t bottom_index = 0;
  for (size_t i = 0; i < result->candidates.size(); ++i) {
    if (result->candidates[i].node == LatticeNode{0, 0, 0}) {
      bottom_index = i;
    }
  }
  EXPECT_NE(std::find(result->scalar_front.begin(),
                      result->scalar_front.end(), bottom_index),
            result->scalar_front.end());

  // Scalar-front sanity: no front member dominates another on (k, U).
  for (size_t i : result->scalar_front) {
    for (size_t j : result->scalar_front) {
      if (i == j) continue;
      const ParetoCandidate& a = result->candidates[i];
      const ParetoCandidate& b = result->candidates[j];
      bool dominates = a.min_class_size >= b.min_class_size &&
                       a.total_utility >= b.total_utility &&
                       (a.min_class_size > b.min_class_size ||
                        a.total_utility > b.total_utility);
      EXPECT_FALSE(dominates);
    }
  }
}

TEST(ParetoLatticeTest, VectorFrontIsSupersetOfScalarIntuition) {
  // Every scalar-front member's property set is not strongly dominated,
  // so it appears on the vector front too... not necessarily (scalar
  // aggregates lose information both ways). Instead check the defining
  // property of the vector front directly.
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetB();
  ASSERT_TRUE(hierarchies.ok());
  auto result = ParetoLatticeSearch(*data, *hierarchies);
  ASSERT_TRUE(result.ok());
  for (size_t i : result->vector_front) {
    for (size_t j = 0; j < result->candidates.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(StronglyDominates(result->candidates[j].properties,
                                     result->candidates[i].properties));
    }
  }
}

TEST(ParetoLatticeTest, NullInputRejected) {
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  EXPECT_FALSE(ParetoLatticeSearch(nullptr, *hierarchies).ok());
}

}  // namespace
}  // namespace mdc
