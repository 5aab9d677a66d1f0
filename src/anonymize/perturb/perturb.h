// Perturbative anonymization mechanisms — the first non-generalization
// backend family (ROADMAP item 3; permutation paradigm of Ruiz,
// arXiv:1701.08419 and Domingo-Ferrer et al., arXiv:2010.03502).
//
// Unlike the generalization stack, these mechanisms release *numeric*
// values: each numeric quasi-identifier column is independently perturbed
// while string columns pass through untouched. Three mechanisms:
//
//   kNoise            — additive correlated noise: e_i ~ N(0, (s·σ_a)²)
//                       per attribute a, i.e. the noise covariance is
//                       proportional to the (diagonal of the) data
//                       covariance, the classic masking scheme.
//   kRankSwap         — rank swapping: values are swapped with a partner
//                       whose rank lies within a window of p·N positions.
//   kMicroaggregation — MDAV-style univariate microaggregation: groups of
//                       >= k rows (nearest by value) are replaced by their
//                       group mean.
//
// Determinism contract: the released table is a pure function of
// (dataset, config) — per-column RNG streams are derived from
// (config.seed, column index), so results, `perturb.*` counters, and
// checkpoint bytes are byte-identical for any thread count. Columns are
// admitted serially (charging RunContext steps in column order), evaluated
// wave-parallel into per-column slots, and committed in admission order by
// the wave driver the lattice searches run on (common/waves.h).
//
// Budget expiry does NOT degrade to a partial release (a half-perturbed
// table is a disclosure hazard, unlike a half-searched lattice): the
// budget Status is returned, and when `checkpoint` is non-null the
// completed columns' values are captured so a resumed run skips them and
// produces a release identical to an uninterrupted one.

#ifndef MDC_ANONYMIZE_PERTURB_PERTURB_H_
#define MDC_ANONYMIZE_PERTURB_PERTURB_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "anonymize/full_domain.h"
#include "anonymize/generalizer.h"
#include "common/run_context.h"
#include "common/status.h"

namespace mdc {

enum class PerturbMechanism { kNoise, kRankSwap, kMicroaggregation };

// "noise" | "rankswap" | "microagg".
const char* PerturbMechanismName(PerturbMechanism mechanism);
StatusOr<PerturbMechanism> ParsePerturbMechanism(const std::string& name);

// True when `name` names a perturbative mechanism (used by the CLI and
// the service to route algorithm lists between backend families).
bool IsPerturbMechanismName(const std::string& name);

struct PerturbConfig {
  PerturbMechanism mechanism = PerturbMechanism::kNoise;
  uint64_t seed = 1;
  // kNoise: noise sigma as a multiple of the column standard deviation.
  // Must be finite and > 0.
  double noise_scale = 0.1;
  // kRankSwap: swap window as a fraction of N, in (0, 1].
  double swap_window = 0.05;
  // kMicroaggregation: minimum group size, >= 2.
  int k = 3;
  // Worker threads for per-column evaluation; 1 = serial, <= 0 = one per
  // hardware thread. Results are identical for any value.
  int threads = 1;
};

Status ValidatePerturbConfig(const PerturbConfig& config);

// Builds a config from the string key=value params used by batch jobs and
// service job specs: mechanism, seed, noise_scale, swap_window, k,
// unknown keys and hostile values are rejected with a clean
// InvalidArgument (never a crash) — perturb_fuzz_test proves it.
StatusOr<PerturbConfig> PerturbConfigFromParams(
    const std::map<std::string, std::string>& params);

// Resumable position: the number of completed columns and their released
// values (each column is a pure function of the inputs, but storing the
// bytes keeps resume O(remaining columns) and bit-exact by construction).
// `config_hash` guards against resuming under a different config/dataset.
struct PerturbCheckpoint final : Checkpointable {
  uint64_t config_hash = 0;
  uint64_t rows = 0;
  uint64_t next_column = 0;          // Index into the numeric-QI column list.
  std::vector<double> done_values;   // next_column × rows, column-major.
  bool captured = false;

  bool has_state() const override { return captured; }
  StatusOr<std::string> SaveCheckpoint() const override;
  Status ResumeFrom(std::string_view bytes) override;
};

struct PerturbResult {
  Anonymization anonymization;           // Numeric QI cells perturbed.
  std::vector<size_t> perturbed_columns; // Numeric QI columns, schema order.
  RunStats run_stats;
};

// Perturbs every numeric quasi-identifier column of `original`.
// InvalidArgument when the config is invalid, the dataset is empty, no
// numeric QI column exists, or a perturbed real column holds a NaN or an
// infinity (checked before any column is perturbed; a checkpoint passed in
// is left as it was). The release schema converts perturbed int columns to
// kReal (noise offsets and group means are not integers).
StatusOr<PerturbResult> PerturbAnonymize(
    std::shared_ptr<const Dataset> original, const PerturbConfig& config,
    RunContext* run = nullptr, PerturbCheckpoint* checkpoint = nullptr);

// ---------------------------------------------------------------------------
// Per-column kernels (one translation unit each). Pure functions of their
// arguments — the law-based test suite (tests/permutation_laws_test.cc)
// targets these directly. PerturbAnonymize hands them finite values only.

// x'_i = x_i + s·σ·g_i with σ the population stddev of `values` and g_i
// standard normal draws from Rng(seed). A constant column (σ = 0) is
// released unchanged.
std::vector<double> PerturbColumnNoise(const std::vector<double>& values,
                                       double scale, uint64_t seed);

// Rank swapping with window w = max(1, floor(window · N)) rank positions.
// Ranks are the StableOrder of `values` (core/permutation_metrics.h: the
// stable ascending order, ties broken by row index), each not-yet-swapped
// rank picks a partner uniformly among the not-yet-swapped ranks within w
// above it, and the two rows exchange values. Precondition: every value is
// finite.
std::vector<double> PerturbColumnRankSwap(const std::vector<double>& values,
                                          double window, uint64_t seed);

// MDAV-style univariate microaggregation with minimum group size k: while
// >= 2k values remain, the extremes take their k-1 nearest neighbours as
// groups; the (< 2k) remainder forms one group. Every value is replaced
// by its group mean. Rows are ordered by StableOrder, ties by row index.
// Deterministic — no RNG. Precondition: every value is finite.
std::vector<double> PerturbColumnMicroaggregate(
    const std::vector<double>& values, int k);

}  // namespace mdc

#endif  // MDC_ANONYMIZE_PERTURB_PERTURB_H_
