// Encoded-evaluation oracle: the columnar EncodedNodeEvaluator must be
// observationally identical to the reference string-path EvaluateNode —
// same partitions (class order, members, ClassOfRow), same feasibility and
// suppression decisions, same released tables — across randomized census
// datasets (interval, suffix, and taxonomy hierarchies), the paper's
// Table 1, and every node of each lattice. The search-level legs hold every
// full-domain search that runs on it to the same reference: Datafly and
// the greedy walks against their loops over EvaluateNode, and the lattice
// searches' best release against EvaluateNode(best_node).

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "anonymize/datafly.h"
#include "anonymize/encoded_eval.h"
#include "anonymize/equivalence.h"
#include "anonymize/full_domain.h"
#include "anonymize/incognito.h"
#include "anonymize/optimal_lattice.h"
#include "anonymize/samarati.h"
#include "anonymize/stochastic.h"
#include "anonymize/top_down.h"
#include "common/rng.h"
#include "datagen/census_generator.h"
#include "paper/paper_data.h"
#include "utility/loss_metric.h"

namespace mdc {
namespace {

struct Workload {
  std::string name;
  std::shared_ptr<const Dataset> data;
  HierarchySet hierarchies;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  auto table1 = paper::Table1();
  MDC_CHECK(table1.ok());
  auto set_a = paper::HierarchySetA();
  MDC_CHECK(set_a.ok());
  out.push_back({"table1", *table1, std::move(set_a).value()});

  // Randomized census workloads: vary size, seed, zip fan-out and QI
  // count so every hierarchy type is exercised over several dictionaries.
  struct CensusCase {
    size_t rows;
    uint64_t seed;
    int zip_regions;
    bool with_occupation;
  };
  for (const CensusCase& census_case :
       {CensusCase{60, 7, 3, false}, CensusCase{120, 1234, 6, true},
        CensusCase{200, 99, 8, true}}) {
    CensusConfig config;
    config.rows = census_case.rows;
    config.seed = census_case.seed;
    config.zip_regions = census_case.zip_regions;
    config.with_occupation = census_case.with_occupation;
    auto census = GenerateCensus(config);
    MDC_CHECK(census.ok());
    out.push_back({"census_rows" + std::to_string(census_case.rows) +
                       "_seed" + std::to_string(census_case.seed),
                   census->data, std::move(census->hierarchies)});
  }
  return out;
}

void ExpectSamePartition(const EquivalencePartition& legacy,
                         const EquivalencePartition& encoded) {
  ASSERT_EQ(legacy.row_count(), encoded.row_count());
  ASSERT_EQ(legacy.class_count(), encoded.class_count());
  // classes() carries the full structure: class order AND member order.
  EXPECT_EQ(legacy.classes(), encoded.classes());
  for (size_t row = 0; row < legacy.row_count(); ++row) {
    ASSERT_EQ(legacy.ClassOfRow(row), encoded.ClassOfRow(row)) << row;
  }
  EXPECT_EQ(legacy.MinClassSize(), encoded.MinClassSize());
}

struct Policy {
  int k;
  double max_fraction;
};

constexpr Policy kPolicies[] = {{2, 0.0}, {3, 0.05}, {5, 0.2}};

std::string PolicyName(const Policy& policy) {
  return "k=" + std::to_string(policy.k) +
         " supp=" + std::to_string(policy.max_fraction);
}

// Every node of every workload's lattice, at several (k, suppression)
// policies: Evaluate() must reproduce EvaluateNode()'s partition,
// suppression count and feasibility verdict, and Materialize() the full
// release, cell for cell.
TEST(EncodedEvalOracleTest, MatchesLegacyEvaluateNodeEverywhere) {
  for (const Workload& workload : Workloads()) {
    SCOPED_TRACE(workload.name);
    auto lattice = Lattice::ForHierarchies(workload.hierarchies);
    ASSERT_TRUE(lattice.ok());
    auto evaluator =
        EncodedNodeEvaluator::Build(workload.data, workload.hierarchies);
    ASSERT_TRUE(evaluator.ok()) << evaluator.status().ToString();

    for (const Policy& policy : kPolicies) {
      SCOPED_TRACE(PolicyName(policy));
      SuppressionBudget budget{policy.max_fraction};
      for (const LatticeNode& node : lattice->AllNodesByHeight()) {
        auto legacy = EvaluateNode(workload.data, workload.hierarchies, node,
                                   policy.k, budget, "test");
        ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
        auto encoded = evaluator->Evaluate(node, policy.k, budget);
        ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();

        EXPECT_EQ(legacy->feasible, encoded->feasible);
        EXPECT_EQ(legacy->suppressed_count, encoded->suppressed_count);
        ExpectSamePartition(legacy->partition, encoded->partition);

        auto materialized = evaluator->Materialize(node, *encoded, "test");
        ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
        EXPECT_EQ(legacy->anonymization.release.ToCsv(),
                  materialized->anonymization.release.ToCsv());
        EXPECT_EQ(legacy->anonymization.suppressed,
                  materialized->anonymization.suppressed);
        ExpectSamePartition(legacy->partition, materialized->partition);
      }
    }
  }
}

// MaterializeUnsuppressed must equal the raw Generalizer::Apply release
// and its partition (the Pareto search's inputs).
TEST(EncodedEvalOracleTest, MaterializeUnsuppressedMatchesApply) {
  for (const Workload& workload : Workloads()) {
    SCOPED_TRACE(workload.name);
    auto lattice = Lattice::ForHierarchies(workload.hierarchies);
    ASSERT_TRUE(lattice.ok());
    auto evaluator =
        EncodedNodeEvaluator::Build(workload.data, workload.hierarchies);
    ASSERT_TRUE(evaluator.ok());
    for (const LatticeNode& node : lattice->AllNodesByHeight()) {
      auto scheme = GeneralizationScheme::Create(workload.hierarchies, node);
      ASSERT_TRUE(scheme.ok());
      auto applied = Generalizer::Apply(workload.data, *scheme, "test");
      ASSERT_TRUE(applied.ok());
      EquivalencePartition legacy =
          EquivalencePartition::FromAnonymization(*applied);

      auto candidate = evaluator->MaterializeUnsuppressed(node, "test");
      ASSERT_TRUE(candidate.ok()) << candidate.status().ToString();
      EXPECT_EQ(applied->release.ToCsv(),
                candidate->anonymization.release.ToCsv());
      ExpectSamePartition(legacy, candidate->partition);
    }
  }
}

// Bad node vectors must fail with the same Status text as the legacy
// scheme validation.
TEST(EncodedEvalOracleTest, ValidationErrorsMatchLegacy) {
  auto table1 = paper::Table1();
  ASSERT_TRUE(table1.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  auto evaluator = EncodedNodeEvaluator::Build(*table1, *hierarchies);
  ASSERT_TRUE(evaluator.ok());

  for (const LatticeNode& bad :
       {LatticeNode{0}, LatticeNode{0, 0, 99}, LatticeNode{-1, 0, 0}}) {
    auto legacy =
        EvaluateNode(*table1, *hierarchies, bad, 2, {}, "test");
    auto encoded = evaluator->Evaluate(bad, 2, {});
    ASSERT_FALSE(legacy.ok());
    ASSERT_FALSE(encoded.ok());
    EXPECT_EQ(legacy.status().ToString(), encoded.status().ToString());
  }
  auto legacy_k = EvaluateNode(*table1, *hierarchies, {0, 0, 0}, 0, {}, "t");
  auto encoded_k = evaluator->Evaluate({0, 0, 0}, 0, {});
  ASSERT_FALSE(legacy_k.ok());
  ASSERT_FALSE(encoded_k.ok());
  EXPECT_EQ(legacy_k.status().ToString(), encoded_k.status().ToString());
}

// ------------------------------------------- search-level reference oracle

// A greedy walk's outcome as the reference loops below report it.
struct ReferenceWalk {
  NodeEvaluation evaluation;
  LatticeNode node;
  int steps = 0;
};

// Datafly as a loop over EvaluateNode that counts each column's distinct
// labels over the release strings.
StatusOr<ReferenceWalk> LegacyDatafly(std::shared_ptr<const Dataset> original,
                                      const HierarchySet& hierarchies, int k,
                                      const SuppressionBudget& budget) {
  MDC_ASSIGN_OR_RETURN(Lattice lattice, Lattice::ForHierarchies(hierarchies));
  LatticeNode node = lattice.Bottom();
  int steps = 0;
  while (true) {
    MDC_ASSIGN_OR_RETURN(
        NodeEvaluation evaluation,
        EvaluateNode(original, hierarchies, node, k, budget, "datafly"));
    if (evaluation.feasible) {
      return ReferenceWalk{std::move(evaluation), node, steps};
    }
    size_t best_pos = hierarchies.size();
    size_t best_distinct = 0;
    for (size_t pos = 0; pos < hierarchies.size(); ++pos) {
      if (node[pos] >= hierarchies.At(pos).height()) continue;
      size_t column = hierarchies.columns()[pos];
      std::set<std::string> distinct;
      for (size_t r = 0; r < evaluation.anonymization.release.row_count();
           ++r) {
        distinct.insert(
            evaluation.anonymization.release.cell(r, column).ToString());
      }
      if (best_pos == hierarchies.size() || distinct.size() > best_distinct) {
        best_pos = pos;
        best_distinct = distinct.size();
      }
    }
    if (best_pos == hierarchies.size()) {
      return Status::Infeasible(
          "Datafly: table cannot be made " + std::to_string(k) +
          "-anonymous even at full generalization");
    }
    ++node[best_pos];
    ++steps;
  }
}

// Top-down specialization as a loop over EvaluateNode.
StatusOr<ReferenceWalk> LegacyTopDown(std::shared_ptr<const Dataset> original,
                                      const HierarchySet& hierarchies, int k,
                                      const SuppressionBudget& budget,
                                      const LossFn& loss) {
  MDC_ASSIGN_OR_RETURN(Lattice lattice, Lattice::ForHierarchies(hierarchies));
  LatticeNode node = lattice.Top();
  MDC_ASSIGN_OR_RETURN(
      NodeEvaluation current,
      EvaluateNode(original, hierarchies, node, k, budget, "top-down"));
  if (!current.feasible) {
    return Status::Infeasible(
        "top-down specialization: table infeasible even at full "
        "generalization");
  }
  double current_loss = loss(current.anonymization, current.partition);
  int steps = 0;
  while (true) {
    bool moved = false;
    LatticeNode best_node;
    NodeEvaluation best_evaluation;
    double best_loss = current_loss;
    for (const LatticeNode& candidate : lattice.Predecessors(node)) {
      MDC_ASSIGN_OR_RETURN(NodeEvaluation evaluation,
                           EvaluateNode(original, hierarchies, candidate, k,
                                        budget, "top-down"));
      if (!evaluation.feasible) continue;
      double candidate_loss =
          loss(evaluation.anonymization, evaluation.partition);
      if (candidate_loss < best_loss ||
          (!moved && candidate_loss <= best_loss)) {
        best_loss = candidate_loss;
        best_node = candidate;
        best_evaluation = std::move(evaluation);
        moved = true;
      }
    }
    if (!moved) break;
    node = best_node;
    current = std::move(best_evaluation);
    current_loss = best_loss;
    ++steps;
  }
  return ReferenceWalk{std::move(current), node, steps};
}

size_t UndersizedRows(const EquivalencePartition& partition, int k) {
  size_t undersized = 0;
  for (ClassSpan members : partition.classes()) {
    if (members.size() < static_cast<size_t>(k)) undersized += members.size();
  }
  return undersized;
}

// Bottom-up generalization as a loop over EvaluateNode.
StatusOr<ReferenceWalk> LegacyBottomUp(std::shared_ptr<const Dataset> original,
                                       const HierarchySet& hierarchies, int k,
                                       const SuppressionBudget& budget,
                                       const LossFn& loss) {
  MDC_ASSIGN_OR_RETURN(Lattice lattice, Lattice::ForHierarchies(hierarchies));
  LatticeNode node = lattice.Bottom();
  MDC_ASSIGN_OR_RETURN(
      NodeEvaluation current,
      EvaluateNode(original, hierarchies, node, k, budget, "bottom-up"));
  int steps = 0;
  while (!current.feasible) {
    size_t current_undersized = UndersizedRows(current.partition, k);
    double current_loss = loss(current.anonymization, current.partition);
    bool moved = false;
    LatticeNode best_node;
    NodeEvaluation best_evaluation;
    double best_ratio = -std::numeric_limits<double>::infinity();
    for (const LatticeNode& candidate : lattice.Successors(node)) {
      MDC_ASSIGN_OR_RETURN(NodeEvaluation evaluation,
                           EvaluateNode(original, hierarchies, candidate, k,
                                        budget, "bottom-up"));
      double privacy_gain =
          evaluation.feasible
              ? static_cast<double>(current_undersized)
              : static_cast<double>(current_undersized) -
                    static_cast<double>(UndersizedRows(evaluation.partition,
                                                       k));
      double loss_increase =
          loss(evaluation.anonymization, evaluation.partition) -
          current_loss;
      double ratio = loss_increase <= 1e-12
                         ? (privacy_gain > 0
                                ? std::numeric_limits<double>::infinity()
                                : 0.0)
                         : privacy_gain / loss_increase;
      if (!moved || ratio > best_ratio) {
        best_ratio = ratio;
        best_node = candidate;
        best_evaluation = std::move(evaluation);
        moved = true;
      }
    }
    if (!moved) {
      return Status::Infeasible(
          "bottom-up generalization: table infeasible even at full "
          "generalization");
    }
    node = best_node;
    current = std::move(best_evaluation);
    ++steps;
  }
  return ReferenceWalk{std::move(current), node, steps};
}

void ExpectSameRelease(const NodeEvaluation& reference,
                       const NodeEvaluation& got) {
  EXPECT_EQ(reference.feasible, got.feasible);
  EXPECT_EQ(reference.suppressed_count, got.suppressed_count);
  ExpectSamePartition(reference.partition, got.partition);
  EXPECT_EQ(reference.anonymization.release.ToCsv(),
            got.anonymization.release.ToCsv());
  EXPECT_EQ(reference.anonymization.suppressed, got.anonymization.suppressed);
  EXPECT_EQ(reference.anonymization.algorithm, got.anonymization.algorithm);
}

StatusOr<ReferenceWalk> AsWalk(StatusOr<DataflyResult> result) {
  if (!result.ok()) return result.status();
  return ReferenceWalk{std::move(result->evaluation), result->node,
                       result->generalization_steps};
}

StatusOr<ReferenceWalk> AsWalk(StatusOr<GreedyWalkResult> result) {
  if (!result.ok()) return result.status();
  return ReferenceWalk{std::move(result->evaluation), result->node,
                       result->steps};
}

// Both sides must succeed with the same walk, or fail with the same Status.
void ExpectSameWalk(const StatusOr<ReferenceWalk>& reference,
                    const StatusOr<ReferenceWalk>& got) {
  ASSERT_EQ(reference.ok(), got.ok())
      << (reference.ok() ? got.status() : reference.status()).ToString();
  if (!reference.ok()) {
    EXPECT_EQ(reference.status().ToString(), got.status().ToString());
    return;
  }
  EXPECT_EQ(reference->node, got->node);
  EXPECT_EQ(reference->steps, got->steps);
  ExpectSameRelease(reference->evaluation, got->evaluation);
}

// Iyengar's LM over one dataset's releases. A full-domain release of a
// dataset is fixed by its node and its suppressed rows, so each one is
// scored once: the string-path LM dominates this test's run time, and the
// reference and library walks score the same releases.
LossFn LmLoss() {
  using Key = std::pair<std::vector<int>, std::vector<bool>>;
  auto scored = std::make_shared<std::map<Key, double>>();
  return [scored](const Anonymization& anonymization,
                  const EquivalencePartition&) {
    Key key{anonymization.scheme->levels(), anonymization.suppressed};
    auto it = scored->find(key);
    if (it != scored->end()) return it->second;
    auto loss = LossMetric::TotalLoss(anonymization);
    MDC_CHECK(loss.ok());
    scored->emplace(std::move(key), *loss);
    return *loss;
  };
}

TEST(SearchOracleTest, DataflyMatchesReferenceLoop) {
  size_t released = 0;
  for (const Workload& workload : Workloads()) {
    SCOPED_TRACE(workload.name);
    for (const Policy& policy : kPolicies) {
      SCOPED_TRACE(PolicyName(policy));
      SuppressionBudget budget{policy.max_fraction};
      auto reference = LegacyDatafly(workload.data, workload.hierarchies,
                                     policy.k, budget);
      released += reference.ok() ? 1 : 0;
      ExpectSameWalk(reference,
                     AsWalk(DataflyAnonymize(workload.data,
                                             workload.hierarchies,
                                             DataflyConfig{policy.k, budget})));
    }
  }
  EXPECT_EQ(released, Workloads().size() * std::size(kPolicies));
}

TEST(SearchOracleTest, GreedyWalksMatchReferenceLoops) {
  size_t released = 0;
  for (const Workload& workload : Workloads()) {
    SCOPED_TRACE(workload.name);
    const std::pair<const char*, LossFn> losses[] = {{"proxy", ProxyLoss},
                                                     {"lm", LmLoss()}};
    for (const Policy& policy : kPolicies) {
      SCOPED_TRACE(PolicyName(policy));
      SuppressionBudget budget{policy.max_fraction};
      GreedyWalkConfig config{policy.k, budget};
      for (const auto& [loss_name, loss] : losses) {
        SCOPED_TRACE(loss_name);
        auto top_down = LegacyTopDown(workload.data, workload.hierarchies,
                                      policy.k, budget, loss);
        auto bottom_up = LegacyBottomUp(workload.data, workload.hierarchies,
                                        policy.k, budget, loss);
        released += (top_down.ok() ? 1 : 0) + (bottom_up.ok() ? 1 : 0);
        ExpectSameWalk(top_down,
                       AsWalk(TopDownSpecialize(
                           workload.data, workload.hierarchies, config, loss)));
        ExpectSameWalk(bottom_up,
                       AsWalk(BottomUpGeneralize(
                           workload.data, workload.hierarchies, config, loss)));
      }
    }
  }
  EXPECT_EQ(released, Workloads().size() * std::size(kPolicies) * 4);
}

// The lattice searches' returned release must be exactly what the
// reference evaluation of their best node releases.
TEST(SearchOracleTest, LatticeSearchBestMatchesReferenceEvaluation) {
  size_t resumed_with_best = 0;
  for (const Workload& workload : Workloads()) {
    SCOPED_TRACE(workload.name);
    for (const Policy& policy : kPolicies) {
      SCOPED_TRACE(PolicyName(policy));
      SuppressionBudget budget{policy.max_fraction};
      auto expect_reference = [&](const LatticeNode& node,
                                  const NodeEvaluation& got,
                                  const std::string& algorithm) {
        SCOPED_TRACE(algorithm);
        auto reference = EvaluateNode(workload.data, workload.hierarchies,
                                      node, policy.k, budget, algorithm);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();
        ExpectSameRelease(*reference, got);
      };

      SamaratiConfig samarati_config;
      samarati_config.k = policy.k;
      samarati_config.suppression = budget;
      auto samarati = SamaratiAnonymize(workload.data, workload.hierarchies,
                                        samarati_config);
      if (samarati.ok()) {
        expect_reference(samarati->best_node, samarati->best, "samarati");
      }

      OptimalSearchConfig optimal_config;
      optimal_config.k = policy.k;
      optimal_config.suppression = budget;
      auto optimal = OptimalLatticeSearch(workload.data, workload.hierarchies,
                                          optimal_config);
      if (optimal.ok()) {
        expect_reference(optimal->best_node, optimal->best, "optimal");
        // Interrupt mid-sweep, persist, resume: the re-derived best must
        // release the same table.
        for (uint64_t max_steps :
             {uint64_t{optimal->nodes_evaluated / 2},
              uint64_t{optimal->nodes_evaluated - 1}}) {
          RunContext run;
          run.set_max_steps(max_steps);
          OptimalLatticeCheckpoint checkpoint;
          (void)OptimalLatticeSearch(workload.data, workload.hierarchies,
                                     optimal_config, ProxyLoss, &run,
                                     &checkpoint);
          if (!checkpoint.has_state() || checkpoint.minimal_nodes.empty()) {
            continue;
          }
          auto bytes = checkpoint.SaveCheckpoint();
          ASSERT_TRUE(bytes.ok());
          OptimalLatticeCheckpoint loaded;
          ASSERT_TRUE(loaded.ResumeFrom(*bytes).ok());
          auto resumed =
              OptimalLatticeSearch(workload.data, workload.hierarchies,
                                   optimal_config, ProxyLoss, nullptr,
                                   &loaded);
          ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
          EXPECT_EQ(resumed->best_node, optimal->best_node);
          expect_reference(resumed->best_node, resumed->best, "optimal");
          ++resumed_with_best;
        }
      }

      IncognitoConfig incognito_config;
      incognito_config.k = policy.k;
      incognito_config.suppression = budget;
      auto incognito = IncognitoAnonymize(
          workload.data, workload.hierarchies, incognito_config);
      if (incognito.ok()) {
        expect_reference(incognito->best_node, incognito->best, "incognito");
      }

      StochasticConfig stochastic_config;
      stochastic_config.k = policy.k;
      stochastic_config.suppression = budget;
      stochastic_config.restarts = 3;
      auto stochastic = StochasticAnonymize(
          workload.data, workload.hierarchies, stochastic_config);
      if (stochastic.ok()) {
        expect_reference(stochastic->best_node, stochastic->best,
                         "stochastic");
      }
    }
  }
  // The resume leg must have re-derived a best evaluation at least once.
  EXPECT_GT(resumed_with_best, 0u);
}

// A taxonomy value that is not a leaf cannot be generalized at any level:
// the walks fail when they build their evaluator, with the Status the
// reference returns for the first node each walk evaluates.
TEST(SearchOracleTest, UngeneralizableValueFailsLikeReference) {
  auto table1 = paper::Table1();
  ASSERT_TRUE(table1.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  auto edited = std::make_shared<Dataset>(**table1);
  edited->set_cell(0, paper::kMaritalColumn, Value("Married"));
  std::shared_ptr<const Dataset> data = std::move(edited);
  auto lattice = Lattice::ForHierarchies(*hierarchies);
  ASSERT_TRUE(lattice.ok());

  auto at_bottom =
      EvaluateNode(data, *hierarchies, lattice->Bottom(), 2, {}, "test");
  auto at_top = EvaluateNode(data, *hierarchies, lattice->Top(), 2, {}, "test");
  ASSERT_FALSE(at_bottom.ok());
  ASSERT_FALSE(at_top.ok());

  auto datafly = DataflyAnonymize(data, *hierarchies, DataflyConfig{2, {}});
  auto top_down =
      TopDownSpecialize(data, *hierarchies, GreedyWalkConfig{2, {}});
  auto bottom_up =
      BottomUpGeneralize(data, *hierarchies, GreedyWalkConfig{2, {}});
  ASSERT_FALSE(datafly.ok());
  ASSERT_FALSE(top_down.ok());
  ASSERT_FALSE(bottom_up.ok());
  EXPECT_EQ(datafly.status().ToString(), at_bottom.status().ToString());
  EXPECT_EQ(top_down.status().ToString(), at_top.status().ToString());
  EXPECT_EQ(bottom_up.status().ToString(), at_bottom.status().ToString());
}

// FromCodeColumns' three key widths — one word, two words (__int128), and
// the map fallback — must group identically. Reference grouping computed
// with an ordered map over the full tuples.
TEST(FromCodeColumnsTest, AllKeyWidthsMatchReferenceGrouping) {
  struct Shape {
    size_t columns;
    uint32_t cardinality;  // Same for every column.
  };
  // 4 cols * 5 bits = 20 bits (uint64_t); 9 cols * 11 bits = 99 bits
  // (__int128); 12 cols * 11 bits = 132 bits (map fallback).
  for (const Shape& shape :
       {Shape{4, 20}, Shape{9, 1100}, Shape{12, 1100}}) {
    SCOPED_TRACE(std::to_string(shape.columns) + " cols, card " +
                 std::to_string(shape.cardinality));
    const size_t rows = 500;
    Rng rng(shape.columns * 1000 + shape.cardinality);
    std::vector<std::vector<uint32_t>> code_columns(
        shape.columns, std::vector<uint32_t>(rows));
    std::vector<uint32_t> cardinalities(shape.columns, shape.cardinality);
    for (auto& column : code_columns) {
      for (uint32_t& code : column) {
        // Small draw range so collisions (multi-row classes) are common.
        code = static_cast<uint32_t>(rng.NextBelow(7)) *
               (shape.cardinality / 8);
      }
    }

    std::map<std::vector<uint32_t>, std::vector<size_t>> reference;
    for (size_t row = 0; row < rows; ++row) {
      std::vector<uint32_t> key(shape.columns);
      for (size_t c = 0; c < shape.columns; ++c) {
        key[c] = code_columns[c][row];
      }
      reference[std::move(key)].push_back(row);
    }

    EquivalencePartition partition = EquivalencePartition::FromCodeColumns(
        rows, code_columns, cardinalities);
    ASSERT_EQ(partition.class_count(), reference.size());
    size_t class_id = 0;
    for (const auto& [key, members] : reference) {
      EXPECT_EQ(partition.class_members(class_id), members)
          << "class " << class_id;
      ++class_id;
    }
  }
}

}  // namespace
}  // namespace mdc
