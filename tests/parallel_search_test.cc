// Thread-count invariance of the five lattice searches: for any worker
// count, every search must return a result bit-identical to its one-thread
// run — same nodes, same losses, same evaluation counters, same released
// tables — including when a step budget expires mid-search (the wave
// protocol replays budget charges in deterministic node order before
// dispatch), and the checkpoints captured at expiry must serialize to the
// same bytes and resume to the uninterrupted result. The one-thread
// outcomes themselves are pinned too: a digest over them must equal the
// constant captured from the pre-driver sweep loops, so a change to the
// serial behaviour cannot hide behind thread invariance.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "anonymize/incognito.h"
#include "anonymize/optimal_lattice.h"
#include "anonymize/pareto_lattice.h"
#include "anonymize/perturb/perturb.h"
#include "anonymize/samarati.h"
#include "anonymize/stochastic.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/permutation_metrics.h"
#include "datagen/census_generator.h"
#include "table/schema.h"

namespace mdc {
namespace {

// Census workload exercising interval, suffix and taxonomy hierarchies
// over a 270-node lattice — small enough for exhaustive sweeps, large
// enough that waves actually fill.
const CensusData& Census() {
  static const CensusData census = [] {
    CensusConfig config;
    config.rows = 120;
    config.seed = 77;
    config.with_occupation = false;
    auto generated = GenerateCensus(config);
    MDC_CHECK(generated.ok());
    return std::move(generated).value();
  }();
  return census;
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

const std::vector<int> kThreadCounts = {2, 4, 0};  // 0 = hardware.
const std::vector<uint64_t> kStepBudgets = {1, 3, 9, 27, 81, 200};

// 64-bit FNV-1a over the one-thread outcomes, one outcome per call. Each
// field is followed by a unit-separator byte, so field boundaries are part
// of the digest.
constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;

uint64_t FoldOutcome(uint64_t digest, const std::vector<std::string>& fields) {
  for (const std::string& field : fields) {
    for (unsigned char byte : field + '\x1f') {
      digest ^= byte;
      digest *= 1099511628211ULL;
    }
  }
  return digest;
}

// One-thread outcome digests, captured from the hand-written per-site
// sweep loops that the wave driver (common/waves.h) replaced. A deliberate
// change to a sweep's serial behaviour updates its constant and says why.
constexpr uint64_t kSamaratiDigest = 0x31c4b8cc616d7bdbULL;
constexpr uint64_t kOptimalDigest = 0xea1739d27526fc6dULL;
constexpr uint64_t kIncognitoDigest = 0xcccbbc744ca603cbULL;
constexpr uint64_t kParetoDigest = 0x0a20b139215a4253ULL;
constexpr uint64_t kStochasticDigest = 0xa3ae0c27dad00058ULL;
constexpr uint64_t kPerturbNoiseDigest = 0xd910cd75220440fcULL;
constexpr uint64_t kPerturbRankSwapDigest = 0x510a0625bb3990e8ULL;
constexpr uint64_t kPerturbMicroaggDigest = 0xc8ae028f7f8a7e30ULL;
constexpr uint64_t kPermutationModelDigest = 0xfa4e626e72640743ULL;

std::string DigestStr(uint64_t digest) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llxULL",
                static_cast<unsigned long long>(digest));
  return buffer;
}

// The invariance harness. `run_fn(threads, run, checkpoint)` runs one
// search; `fingerprint` must cover everything the search promises to keep
// deterministic. Checks: (1) full runs match the serial fingerprint for
// every thread count; (2) at every step budget, the serial and parallel
// runs agree on outcome, fingerprint, truncation, and checkpoint BYTES;
// (3) parallel-resumed checkpoints land on the uninterrupted result,
// compared via `resume_fingerprint` — normally the same as `fingerprint`,
// but stochastic excludes nodes_evaluated there (the memo cache is not
// part of the checkpoint, so a resumed run may recompute evaluations; see
// checkpoint_resume_test.cc). (4) The one-thread outcomes — the
// unbudgeted run and every kStepBudgets run: status code, truncation,
// fingerprint, checkpoint bytes and deterministic counters — fold into a
// digest that must equal `pinned_digest`.
template <typename Checkpoint, typename RunFn, typename FingerprintFn,
          typename ResumeFingerprintFn>
void CheckThreadInvariance(uint64_t pinned_digest, RunFn run_fn,
                           FingerprintFn fingerprint,
                           ResumeFingerprintFn resume_fingerprint) {
  metrics::ResetForTest();
  auto baseline = run_fn(1, nullptr, nullptr);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string want = fingerprint(*baseline);
  // The deterministic counter subset (search.* / run.* / batch.*) must be
  // byte-identical across thread counts: each counter sits at a point the
  // wave protocol replays in deterministic sweep order.
  const std::string want_counters =
      metrics::Snapshot().DeterministicCountersText();
  EXPECT_FALSE(want_counters.empty());
  uint64_t serial_digest =
      FoldOutcome(kFnvOffsetBasis, {"unbudgeted", want, want_counters});

  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    metrics::ResetForTest();
    auto parallel = run_fn(threads, nullptr, nullptr);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(fingerprint(*parallel), want);
    EXPECT_EQ(metrics::Snapshot().DeterministicCountersText(), want_counters);
  }

  for (uint64_t max_steps : kStepBudgets) {
    SCOPED_TRACE("max_steps=" + std::to_string(max_steps));
    RunContext serial_run;
    serial_run.set_max_steps(max_steps);
    Checkpoint serial_ckpt;
    metrics::ResetForTest();
    auto serial = run_fn(1, &serial_run, &serial_ckpt);
    const std::string serial_counters =
        metrics::Snapshot().DeterministicCountersText();

    RunContext parallel_run;
    parallel_run.set_max_steps(max_steps);
    Checkpoint parallel_ckpt;
    metrics::ResetForTest();
    auto parallel = run_fn(4, &parallel_run, &parallel_ckpt);
    const std::string parallel_counters =
        metrics::Snapshot().DeterministicCountersText();

    std::string serial_bytes_text;
    if (serial_ckpt.has_state()) {
      auto bytes = serial_ckpt.SaveCheckpoint();
      ASSERT_TRUE(bytes.ok());
      serial_bytes_text = *bytes;
    }
    serial_digest = FoldOutcome(
        serial_digest,
        {std::to_string(max_steps),
         std::to_string(static_cast<int>(serial.status().code())),
         serial.ok() ? std::to_string(serial->run_stats.truncated) : "-",
         serial.ok() ? fingerprint(*serial) : "-", serial_bytes_text,
         serial_counters});

    ASSERT_EQ(serial.ok(), parallel.ok())
        << (serial.ok() ? parallel.status() : serial.status()).ToString();
    // Budget expiry lands on the same node either way, so the counters up
    // to that point agree too.
    EXPECT_EQ(serial_counters, parallel_counters);
    if (serial.ok()) {
      EXPECT_EQ(fingerprint(*serial), fingerprint(*parallel));
      EXPECT_EQ(serial->run_stats.truncated, parallel->run_stats.truncated);
    } else {
      EXPECT_EQ(serial.status().code(), parallel.status().code());
    }

    ASSERT_EQ(serial_ckpt.has_state(), parallel_ckpt.has_state());
    if (serial_ckpt.has_state()) {
      auto serial_bytes = serial_ckpt.SaveCheckpoint();
      auto parallel_bytes = parallel_ckpt.SaveCheckpoint();
      ASSERT_TRUE(serial_bytes.ok());
      ASSERT_TRUE(parallel_bytes.ok());
      // Byte-identical capture: same position, same accumulated state.
      EXPECT_EQ(*serial_bytes, *parallel_bytes);

      // Round-trip the parallel capture and finish the search with
      // threads again: must land on the uninterrupted result.
      Checkpoint reloaded;
      ASSERT_TRUE(reloaded.ResumeFrom(*parallel_bytes).ok());
      auto resumed = run_fn(4, nullptr, &reloaded);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      EXPECT_EQ(resume_fingerprint(*resumed), resume_fingerprint(*baseline));
    }
  }
  EXPECT_EQ(DigestStr(serial_digest), DigestStr(pinned_digest))
      << "the one-thread outcomes differ from the pinned sweep behaviour";
}

template <typename Checkpoint, typename RunFn, typename FingerprintFn>
void CheckThreadInvariance(uint64_t pinned_digest, RunFn run_fn,
                           FingerprintFn fingerprint) {
  CheckThreadInvariance<Checkpoint>(pinned_digest, run_fn, fingerprint,
                                    fingerprint);
}

TEST(ParallelSearchTest, SamaratiThreadInvariant) {
  CheckThreadInvariance<SamaratiCheckpoint>(
      kSamaratiDigest,
      [](int threads, RunContext* run, SamaratiCheckpoint* checkpoint) {
        SamaratiConfig config;
        config.k = 3;
        config.suppression.max_fraction = 0.02;
        config.threads = threads;
        return SamaratiAnonymize(Census().data, Census().hierarchies, config,
                                 ProxyLoss, run, checkpoint);
      },
      [](const SamaratiResult& result) {
        return std::to_string(result.minimal_height) + "|" +
               NodesStr(result.minimal_nodes) + "|" +
               NodeStr(result.best_node) + "|" +
               std::to_string(result.nodes_evaluated) + "|" +
               result.best.anonymization.release.ToCsv();
      });
}

TEST(ParallelSearchTest, OptimalThreadInvariant) {
  CheckThreadInvariance<OptimalLatticeCheckpoint>(
      kOptimalDigest,
      [](int threads, RunContext* run, OptimalLatticeCheckpoint* checkpoint) {
        OptimalSearchConfig config;
        config.k = 3;
        config.suppression.max_fraction = 0.02;
        config.threads = threads;
        return OptimalLatticeSearch(Census().data, Census().hierarchies,
                                    config, ProxyLoss, run, checkpoint);
      },
      [](const OptimalSearchResult& result) {
        return NodesStr(result.minimal_nodes) + "|" +
               NodeStr(result.best_node) + "|" +
               DoubleStr(result.best_loss) + "|" +
               std::to_string(result.nodes_evaluated) + "|" +
               result.best.anonymization.release.ToCsv();
      });
}

TEST(ParallelSearchTest, IncognitoThreadInvariant) {
  CheckThreadInvariance<IncognitoCheckpoint>(
      kIncognitoDigest,
      [](int threads, RunContext* run, IncognitoCheckpoint* checkpoint) {
        IncognitoConfig config;
        config.k = 3;
        config.suppression.max_fraction = 0.02;
        config.threads = threads;
        return IncognitoAnonymize(Census().data, Census().hierarchies, config,
                                  ProxyLoss, run, checkpoint);
      },
      [](const IncognitoResult& result) {
        return NodesStr(result.anonymous_nodes) + "|" +
               NodesStr(result.minimal_nodes) + "|" +
               NodeStr(result.best_node) + "|" +
               DoubleStr(result.best_loss) + "|" +
               std::to_string(result.frequency_evaluations);
      });
}

TEST(ParallelSearchTest, ParetoThreadInvariant) {
  CheckThreadInvariance<ParetoLatticeCheckpoint>(
      kParetoDigest,
      [](int threads, RunContext* run, ParetoLatticeCheckpoint* checkpoint) {
        ParetoLatticeConfig config;
        config.threads = threads;
        return ParetoLatticeSearch(Census().data, Census().hierarchies,
                                   config, run, checkpoint);
      },
      [](const ParetoLatticeResult& result) {
        std::string out;
        for (const ParetoCandidate& candidate : result.candidates) {
          out += NodeStr(candidate.node) +
                 DoubleStr(candidate.min_class_size) + "," +
                 DoubleStr(candidate.total_utility) + ";";
        }
        out += "|front:";
        for (size_t index : result.vector_front) {
          out += std::to_string(index) + ",";
        }
        out += "|scalar:";
        for (size_t index : result.scalar_front) {
          out += std::to_string(index) + ",";
        }
        return out;
      });
}

TEST(ParallelSearchTest, StochasticThreadInvariant) {
  CheckThreadInvariance<StochasticCheckpoint>(
      kStochasticDigest,
      [](int threads, RunContext* run, StochasticCheckpoint* checkpoint) {
        StochasticConfig config;
        config.k = 3;
        config.suppression.max_fraction = 0.02;
        config.seed = 9;
        config.restarts = 4;
        config.threads = threads;
        return StochasticAnonymize(Census().data, Census().hierarchies,
                                   config, ProxyLoss, run, checkpoint);
      },
      [](const StochasticResult& result) {
        return NodeStr(result.best_node) + "|" +
               DoubleStr(result.best_loss) + "|" +
               std::to_string(result.nodes_evaluated) + "|" +
               result.best.anonymization.release.ToCsv();
      },
      [](const StochasticResult& result) {
        return NodeStr(result.best_node) + "|" +
               DoubleStr(result.best_loss) + "|" +
               result.best.anonymization.release.ToCsv();
      });
}

// Multi-column numeric workload for the perturbation backend: six real QI
// columns keep the column waves wider than any single worker, and 30 rows
// put the kStepBudgets expiry points at interesting sweep positions (the
// small budgets expire before the first column, 81 lands mid-sweep, 200
// completes).
std::shared_ptr<const Dataset> PerturbData() {
  static const std::shared_ptr<const Dataset> data = [] {
    std::vector<AttributeDef> attributes;
    for (int c = 0; c < 6; ++c) {
      AttributeDef attr;
      attr.name = std::string("c").append(std::to_string(c));
      attr.type = AttributeType::kReal;
      attr.role = AttributeRole::kQuasiIdentifier;
      attributes.push_back(attr);
    }
    auto schema = Schema::Create(std::move(attributes));
    MDC_CHECK(schema.ok());
    Dataset table(*schema);
    Rng rng(123);
    for (int r = 0; r < 30; ++r) {
      std::vector<Value> row;
      for (int c = 0; c < 6; ++c) row.emplace_back(rng.NextDouble() * 100.0);
      MDC_CHECK(table.AppendRow(std::move(row)).ok());
    }
    return std::make_shared<const Dataset>(std::move(table));
  }();
  return data;
}

std::string PerturbFingerprint(const PerturbResult& result) {
  std::string out = result.anonymization.release.ToCsv() + "|";
  for (size_t column : result.perturbed_columns) {
    out += std::to_string(column) + ",";
  }
  return out;
}

// Each mechanism's released table, perturb.* counters, and checkpoint
// bytes must be invariant under worker-thread count — including when the
// step budget expires inside the column sweep.
TEST(ParallelSearchTest, PerturbNoiseThreadInvariant) {
  CheckThreadInvariance<PerturbCheckpoint>(
      kPerturbNoiseDigest,
      [](int threads, RunContext* run, PerturbCheckpoint* checkpoint) {
        PerturbConfig config;
        config.mechanism = PerturbMechanism::kNoise;
        config.seed = 31;
        config.threads = threads;
        return PerturbAnonymize(PerturbData(), config, run, checkpoint);
      },
      PerturbFingerprint);
}

TEST(ParallelSearchTest, PerturbRankSwapThreadInvariant) {
  CheckThreadInvariance<PerturbCheckpoint>(
      kPerturbRankSwapDigest,
      [](int threads, RunContext* run, PerturbCheckpoint* checkpoint) {
        PerturbConfig config;
        config.mechanism = PerturbMechanism::kRankSwap;
        config.swap_window = 0.25;
        config.seed = 32;
        config.threads = threads;
        return PerturbAnonymize(PerturbData(), config, run, checkpoint);
      },
      PerturbFingerprint);
}

TEST(ParallelSearchTest, PerturbMicroaggThreadInvariant) {
  CheckThreadInvariance<PerturbCheckpoint>(
      kPerturbMicroaggDigest,
      [](int threads, RunContext* run, PerturbCheckpoint* checkpoint) {
        PerturbConfig config;
        config.mechanism = PerturbMechanism::kMicroaggregation;
        config.k = 4;
        config.threads = threads;
        return PerturbAnonymize(PerturbData(), config, run, checkpoint);
      },
      PerturbFingerprint);
}

// The permutation-model builder has no checkpoint (it is cheap enough to
// re-run), but its attribute waves share the determinism contract: the
// model, the per-tuple vectors, and the perm.* counters must be
// byte-identical for any thread count, and a budget must expire at the
// same attribute everywhere.
TEST(ParallelSearchTest, PermutationModelThreadInvariant) {
  PerturbConfig perturb;
  perturb.mechanism = PerturbMechanism::kRankSwap;
  perturb.swap_window = 0.3;
  perturb.seed = 8;
  auto release = PerturbAnonymize(PerturbData(), perturb);
  ASSERT_TRUE(release.ok());

  auto model_fingerprint = [](const PermutationModel& model) {
    std::string out = PermutationModelSummary(model) + "|" +
                      model.privacy.ToString() + "|" +
                      model.utility.ToString();
    for (const PermutationAttributeModel& attribute : model.attributes) {
      out += "|" + attribute.name + ":" + DoubleStr(attribute.footrule);
      for (uint32_t p : attribute.permutation) out += std::to_string(p) + ",";
    }
    return out;
  };
  auto run_model = [&](int threads, RunContext* run) {
    PermutationMetricsOptions options;
    options.threads = threads;
    return PermutationModelFor(release->anonymization, nullptr, options, run);
  };

  metrics::ResetForTest();
  auto baseline = run_model(1, nullptr);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string want = model_fingerprint(*baseline);
  const std::string want_counters =
      metrics::Snapshot().DeterministicCountersText();
  EXPECT_FALSE(want_counters.empty());
  uint64_t serial_digest =
      FoldOutcome(kFnvOffsetBasis, {"unbudgeted", want, want_counters});

  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    metrics::ResetForTest();
    auto parallel = run_model(threads, nullptr);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(model_fingerprint(*parallel), want);
    EXPECT_EQ(metrics::Snapshot().DeterministicCountersText(), want_counters);
  }

  for (uint64_t max_steps : kStepBudgets) {
    SCOPED_TRACE("max_steps=" + std::to_string(max_steps));
    RunContext serial_run;
    serial_run.set_max_steps(max_steps);
    metrics::ResetForTest();
    auto serial = run_model(1, &serial_run);
    const std::string serial_counters =
        metrics::Snapshot().DeterministicCountersText();

    RunContext parallel_run;
    parallel_run.set_max_steps(max_steps);
    metrics::ResetForTest();
    auto parallel = run_model(4, &parallel_run);
    const std::string parallel_counters =
        metrics::Snapshot().DeterministicCountersText();

    serial_digest = FoldOutcome(
        serial_digest,
        {std::to_string(max_steps),
         std::to_string(static_cast<int>(serial.status().code())),
         serial.ok() ? model_fingerprint(*serial) : "-", serial_counters});

    ASSERT_EQ(serial.ok(), parallel.ok());
    EXPECT_EQ(serial_counters, parallel_counters);
    if (serial.ok()) {
      EXPECT_EQ(model_fingerprint(*serial), model_fingerprint(*parallel));
    } else {
      EXPECT_EQ(serial.status().code(), parallel.status().code());
    }
  }
  EXPECT_EQ(DigestStr(serial_digest), DigestStr(kPermutationModelDigest))
      << "the one-thread outcomes differ from the pinned sweep behaviour";
}

}  // namespace
}  // namespace mdc
