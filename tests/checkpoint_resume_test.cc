// Checkpoint/resume determinism: a lattice search interrupted by a step
// budget, checkpointed, serialized, reloaded, and resumed must end with a
// result identical to an uninterrupted run — at every interruption point,
// and across chains of repeated interruptions.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "anonymize/incognito.h"
#include "anonymize/optimal_lattice.h"
#include "anonymize/pareto_lattice.h"
#include "anonymize/samarati.h"
#include "anonymize/stochastic.h"
#include "datagen/census_generator.h"
#include "paper/paper_data.h"
#include "table/dataset.h"

namespace mdc {
namespace {

const std::shared_ptr<const Dataset>& Data() {
  static const std::shared_ptr<const Dataset> data = [] {
    auto table = paper::Table1();
    MDC_CHECK(table.ok());
    return *table;
  }();
  return data;
}

const HierarchySet& Hierarchies() {
  static const HierarchySet set = [] {
    auto built = paper::HierarchySetA();
    MDC_CHECK(built.ok());
    return std::move(built).value();
  }();
  return set;
}

std::string NodeStr(const LatticeNode& node) {
  std::string out = "(";
  for (int level : node) out += std::to_string(level) + ",";
  return out + ")";
}

std::string NodesStr(const std::vector<LatticeNode>& nodes) {
  std::string out;
  for (const LatticeNode& node : nodes) out += NodeStr(node);
  return out;
}

std::string DoubleStr(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Runs the search uninterrupted, then at several step budgets: interrupt,
// capture, serialize, reload into a fresh checkpoint object, resume
// unbudgeted, and demand the identical fingerprint. Budgets large enough
// to finish the search must also reproduce it exactly.
template <typename Checkpoint, typename RunFn, typename FingerprintFn>
void CheckEveryInterruptionPoint(RunFn run_fn, FingerprintFn fingerprint,
                                 const std::vector<uint64_t>& budgets) {
  auto baseline = run_fn(nullptr, nullptr);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string want = fingerprint(*baseline);

  for (uint64_t max_steps : budgets) {
    SCOPED_TRACE("max_steps=" + std::to_string(max_steps));
    RunContext run;
    run.set_max_steps(max_steps);
    Checkpoint checkpoint;
    auto interrupted = run_fn(&run, &checkpoint);
    if (run.exhausted().ok()) {
      // The budget never fired: the run completed and there is no state.
      ASSERT_TRUE(interrupted.ok());
      EXPECT_EQ(fingerprint(*interrupted), want);
      EXPECT_FALSE(checkpoint.has_state());
      continue;
    }
    ASSERT_TRUE(checkpoint.has_state()) << "budget fired without a capture";

    auto bytes = checkpoint.SaveCheckpoint();
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    Checkpoint reloaded;
    ASSERT_TRUE(reloaded.ResumeFrom(*bytes).ok());

    auto resumed = run_fn(nullptr, &reloaded);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(fingerprint(*resumed), want);
  }
}

// Interrupt-resume-interrupt chains: every round gets a small (slowly
// growing) budget and resumes from the previous round's serialized
// checkpoint, so the search crosses many checkpoint boundaries before it
// completes — and must still land on the uninterrupted result.
template <typename Checkpoint, typename RunFn, typename FingerprintFn>
void CheckChainedResume(RunFn run_fn, FingerprintFn fingerprint,
                        uint64_t base_steps, uint64_t growth) {
  auto baseline = run_fn(nullptr, nullptr);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string want = fingerprint(*baseline);

  Checkpoint checkpoint;
  int interruptions = 0;
  for (int round = 0; round < 400; ++round) {
    RunContext run;
    run.set_max_steps(base_steps + static_cast<uint64_t>(round) * growth);
    auto result = run_fn(&run, &checkpoint);
    if (run.exhausted().ok()) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(fingerprint(*result), want);
      EXPECT_GT(interruptions, 0) << "chain was never actually interrupted";
      return;
    }
    ++interruptions;
    ASSERT_TRUE(checkpoint.has_state());
    auto bytes = checkpoint.SaveCheckpoint();
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    Checkpoint reloaded;
    ASSERT_TRUE(reloaded.ResumeFrom(*bytes).ok());
    checkpoint = std::move(reloaded);
  }
  FAIL() << "chained resume did not converge";
}

// ---------------------------------------------------------------- incognito

StatusOr<IncognitoResult> RunIncognito(RunContext* run,
                                       IncognitoCheckpoint* checkpoint) {
  IncognitoConfig config;
  config.k = 3;
  return IncognitoAnonymize(Data(), Hierarchies(), config, ProxyLoss, run,
                            checkpoint);
}

std::string IncognitoFingerprint(const IncognitoResult& result) {
  return NodesStr(result.anonymous_nodes) + "|" +
         NodesStr(result.minimal_nodes) + "|" + NodeStr(result.best_node) +
         "|" + DoubleStr(result.best_loss) + "|" +
         std::to_string(result.frequency_evaluations) + "|" +
         std::to_string(result.lattice_size) + "|" +
         result.best.anonymization.release.ToCsv();
}

TEST(CheckpointResumeTest, IncognitoResumesFromEveryInterruptionPoint) {
  CheckEveryInterruptionPoint<IncognitoCheckpoint>(
      RunIncognito, IncognitoFingerprint, {1, 2, 3, 5, 9, 17, 33, 999999});
}

TEST(CheckpointResumeTest, IncognitoSurvivesAChainOfInterruptions) {
  CheckChainedResume<IncognitoCheckpoint>(RunIncognito, IncognitoFingerprint,
                                          3, 0);
}

// ----------------------------------------------------------------- samarati

StatusOr<SamaratiResult> RunSamarati(RunContext* run,
                                     SamaratiCheckpoint* checkpoint) {
  return SamaratiAnonymize(Data(), Hierarchies(), SamaratiConfig{3, {}},
                           ProxyLoss, run, checkpoint);
}

std::string SamaratiFingerprint(const SamaratiResult& result) {
  return std::to_string(result.minimal_height) + "|" +
         NodesStr(result.minimal_nodes) + "|" + NodeStr(result.best_node) +
         "|" + std::to_string(result.nodes_evaluated) + "|" +
         result.best.anonymization.release.ToCsv();
}

TEST(CheckpointResumeTest, SamaratiResumesFromEveryInterruptionPoint) {
  CheckEveryInterruptionPoint<SamaratiCheckpoint>(
      RunSamarati, SamaratiFingerprint, {1, 2, 3, 5, 9, 17, 33, 999999});
}

TEST(CheckpointResumeTest, SamaratiSurvivesAChainOfInterruptions) {
  CheckChainedResume<SamaratiCheckpoint>(RunSamarati, SamaratiFingerprint, 2,
                                         0);
}

// ------------------------------------------------------------ optimal search

StatusOr<OptimalSearchResult> RunOptimal(
    RunContext* run, OptimalLatticeCheckpoint* checkpoint) {
  OptimalSearchConfig config;
  config.k = 3;
  return OptimalLatticeSearch(Data(), Hierarchies(), config, ProxyLoss, run,
                              checkpoint);
}

std::string OptimalFingerprint(const OptimalSearchResult& result) {
  return NodesStr(result.minimal_nodes) + "|" + NodeStr(result.best_node) +
         "|" + DoubleStr(result.best_loss) + "|" +
         std::to_string(result.nodes_evaluated) + "|" +
         std::to_string(result.lattice_size) + "|" +
         result.best.anonymization.release.ToCsv();
}

TEST(CheckpointResumeTest, OptimalResumesFromEveryInterruptionPoint) {
  CheckEveryInterruptionPoint<OptimalLatticeCheckpoint>(
      RunOptimal, OptimalFingerprint, {1, 2, 3, 5, 9, 17, 33, 999999});
}

TEST(CheckpointResumeTest, OptimalSurvivesAChainOfInterruptions) {
  CheckChainedResume<OptimalLatticeCheckpoint>(RunOptimal, OptimalFingerprint,
                                               3, 0);
}

// ------------------------------------------------------------ pareto search

StatusOr<ParetoLatticeResult> RunPareto(RunContext* run,
                                        ParetoLatticeCheckpoint* checkpoint) {
  return ParetoLatticeSearch(Data(), Hierarchies(), ParetoLatticeConfig{},
                             run, checkpoint);
}

std::string ParetoFingerprint(const ParetoLatticeResult& result) {
  std::string out;
  for (const ParetoCandidate& candidate : result.candidates) {
    out += NodeStr(candidate.node) + DoubleStr(candidate.min_class_size) +
           "/" + DoubleStr(candidate.total_utility);
    for (const PropertyVector& property : candidate.properties) {
      out += "[" + property.name() + ":";
      for (double value : property.values()) out += DoubleStr(value) + ",";
      out += "]";
    }
    out += ";";
  }
  out += "|vector:";
  for (size_t i : result.vector_front) out += std::to_string(i) + ",";
  out += "|scalar:";
  for (size_t i : result.scalar_front) out += std::to_string(i) + ",";
  return out + "|" + std::to_string(result.lattice_size);
}

TEST(CheckpointResumeTest, ParetoResumesFromEveryInterruptionPoint) {
  CheckEveryInterruptionPoint<ParetoLatticeCheckpoint>(
      RunPareto, ParetoFingerprint, {1, 2, 3, 5, 9, 17, 33, 999999});
}

TEST(CheckpointResumeTest, ParetoSurvivesAChainOfInterruptions) {
  CheckChainedResume<ParetoLatticeCheckpoint>(RunPareto, ParetoFingerprint, 3,
                                              0);
}

// -------------------------------------------------------------- stochastic

StatusOr<StochasticResult> RunStochastic(RunContext* run,
                                         StochasticCheckpoint* checkpoint) {
  StochasticConfig config;
  config.k = 3;
  config.restarts = 4;
  config.seed = 11;
  return StochasticAnonymize(Data(), Hierarchies(), config, ProxyLoss, run,
                             checkpoint);
}

// nodes_evaluated is deliberately excluded: the memo cache is not part of
// the checkpoint, so a resumed run may recompute evaluations (see
// StochasticCheckpoint docs). The search outcome must still be identical.
std::string StochasticFingerprint(const StochasticResult& result) {
  return NodeStr(result.best_node) + "|" + DoubleStr(result.best_loss) + "|" +
         result.best.anonymization.release.ToCsv();
}

TEST(CheckpointResumeTest, StochasticResumesFromEveryInterruptionPoint) {
  CheckEveryInterruptionPoint<StochasticCheckpoint>(
      RunStochastic, StochasticFingerprint, {1, 2, 3, 5, 9, 17, 33, 999999});
}

TEST(CheckpointResumeTest, StochasticSurvivesAChainOfInterruptions) {
  // Per-restart granularity: the budget must eventually fit a whole
  // restart, so the chain's budget grows each round.
  CheckChainedResume<StochasticCheckpoint>(RunStochastic,
                                           StochasticFingerprint, 2, 2);
}

// ------------------------------------------------------- contract sharp edges

TEST(CheckpointResumeTest, SaveWithoutStateIsAFailedPrecondition) {
  EXPECT_EQ(IncognitoCheckpoint{}.SaveCheckpoint().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(SamaratiCheckpoint{}.SaveCheckpoint().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(OptimalLatticeCheckpoint{}.SaveCheckpoint().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ParetoLatticeCheckpoint{}.SaveCheckpoint().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(StochasticCheckpoint{}.SaveCheckpoint().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckpointResumeTest, ResumeFromGarbageIsACleanError) {
  IncognitoCheckpoint checkpoint;
  EXPECT_FALSE(checkpoint.ResumeFrom("not a snapshot").ok());
  EXPECT_FALSE(checkpoint.ResumeFrom("").ok());
  EXPECT_FALSE(checkpoint.has_state());  // A failed load changes nothing.
}

TEST(CheckpointResumeTest, CheckpointKindsCannotBeConfused) {
  // Capture a real stochastic checkpoint, then try to load its bytes into
  // every other algorithm's checkpoint: the snapshot kind must reject it.
  RunContext run;
  run.set_max_steps(2);
  StochasticCheckpoint stochastic;
  (void)RunStochastic(&run, &stochastic);
  ASSERT_TRUE(stochastic.has_state());
  auto bytes = stochastic.SaveCheckpoint();
  ASSERT_TRUE(bytes.ok());

  EXPECT_FALSE(IncognitoCheckpoint{}.ResumeFrom(*bytes).ok());
  EXPECT_FALSE(SamaratiCheckpoint{}.ResumeFrom(*bytes).ok());
  EXPECT_FALSE(OptimalLatticeCheckpoint{}.ResumeFrom(*bytes).ok());
  EXPECT_FALSE(ParetoLatticeCheckpoint{}.ResumeFrom(*bytes).ok());
  StochasticCheckpoint same_kind;
  EXPECT_TRUE(same_kind.ResumeFrom(*bytes).ok());
}

TEST(CheckpointResumeTest, MismatchedLatticeIsRejectedOnResume) {
  RunContext run;
  run.set_max_steps(3);
  OptimalLatticeCheckpoint optimal;
  (void)RunOptimal(&run, &optimal);
  ASSERT_TRUE(optimal.has_state());
  optimal.satisfying += '\0';  // Bitmap sized for a different lattice.
  EXPECT_EQ(RunOptimal(nullptr, &optimal).status().code(),
            StatusCode::kInvalidArgument);

  StochasticCheckpoint stochastic;
  stochastic.captured = true;
  stochastic.next_restart = 1000;  // Beyond config.restarts.
  EXPECT_EQ(RunStochastic(nullptr, &stochastic).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointResumeTest, IncognitoResumeUnderAnotherKIsAFailedPrecondition) {
  // Verdicts checkpointed at k=2 hold nodes that are not 50-anonymous; the
  // resumed run must say so with a Status instead of aborting.
  CensusConfig census_config;
  census_config.rows = 200;
  census_config.seed = 7;
  census_config.with_occupation = false;
  auto census = GenerateCensus(census_config);
  ASSERT_TRUE(census.ok());
  IncognitoConfig config;
  config.k = 2;
  RunContext unbudgeted;
  ASSERT_TRUE(IncognitoAnonymize(census->data, census->hierarchies, config,
                                 ProxyLoss, &unbudgeted)
                  .ok());

  RunContext run;
  run.set_max_steps(unbudgeted.steps() - 1);
  IncognitoCheckpoint checkpoint;
  auto truncated = IncognitoAnonymize(census->data, census->hierarchies,
                                      config, ProxyLoss, &run, &checkpoint);
  ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
  ASSERT_TRUE(truncated->run_stats.truncated);
  auto bytes = checkpoint.SaveCheckpoint();
  ASSERT_TRUE(bytes.ok());

  IncognitoCheckpoint loaded;
  ASSERT_TRUE(loaded.ResumeFrom(*bytes).ok());
  config.k = 50;
  auto resumed = IncognitoAnonymize(census->data, census->hierarchies,
                                    config, ProxyLoss, nullptr, &loaded);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("checkpoint does not match"),
            std::string::npos)
      << resumed.status().ToString();
}

}  // namespace
}  // namespace mdc
