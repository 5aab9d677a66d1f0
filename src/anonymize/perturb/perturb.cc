// Perturbation driver: config validation and parsing, the checkpoint
// codec, and the per-column sweep on the wave driver (common/waves.h; see
// the determinism contract in perturb.h).

#include "anonymize/perturb/perturb.h"

#include <cmath>
#include <cstring>

#include "common/metrics.h"
#include "common/snapshot.h"
#include "common/strings.h"
#include "common/waves.h"

namespace mdc {
namespace {

constexpr uint32_t kPerturbPayloadVersion = 1;

// Splitmix64 finalizer — used both for the per-column RNG seeds and the
// checkpoint's config fingerprint.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t ColumnSeed(uint64_t seed, size_t column_index) {
  return Mix64(seed ^ Mix64(static_cast<uint64_t>(column_index) + 1));
}

uint64_t ConfigHash(const PerturbConfig& config, size_t rows,
                    size_t columns) {
  uint64_t h = Mix64(static_cast<uint64_t>(config.mechanism) + 1);
  h = Mix64(h ^ config.seed);
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(double));
  std::memcpy(&bits, &config.noise_scale, sizeof(bits));
  h = Mix64(h ^ bits);
  std::memcpy(&bits, &config.swap_window, sizeof(bits));
  h = Mix64(h ^ bits);
  h = Mix64(h ^ static_cast<uint64_t>(config.k));
  h = Mix64(h ^ rows);
  return Mix64(h ^ columns);
}

std::vector<double> RunMechanism(const PerturbConfig& config,
                                 const std::vector<double>& values,
                                 size_t column_index) {
  const uint64_t seed = ColumnSeed(config.seed, column_index);
  switch (config.mechanism) {
    case PerturbMechanism::kNoise:
      return PerturbColumnNoise(values, config.noise_scale, seed);
    case PerturbMechanism::kRankSwap:
      return PerturbColumnRankSwap(values, config.swap_window, seed);
    case PerturbMechanism::kMicroaggregation:
      return PerturbColumnMicroaggregate(values, config.k);
  }
  return values;  // Unreachable; ValidatePerturbConfig rejects bad enums.
}

}  // namespace

const char* PerturbMechanismName(PerturbMechanism mechanism) {
  switch (mechanism) {
    case PerturbMechanism::kNoise:
      return "noise";
    case PerturbMechanism::kRankSwap:
      return "rankswap";
    case PerturbMechanism::kMicroaggregation:
      return "microagg";
  }
  return "unknown";
}

StatusOr<PerturbMechanism> ParsePerturbMechanism(const std::string& name) {
  if (name == "noise") return PerturbMechanism::kNoise;
  if (name == "rankswap") return PerturbMechanism::kRankSwap;
  if (name == "microagg") return PerturbMechanism::kMicroaggregation;
  return Status::InvalidArgument("unknown perturbation mechanism '" + name +
                                 "' (noise|rankswap|microagg)");
}

bool IsPerturbMechanismName(const std::string& name) {
  return ParsePerturbMechanism(name).ok();
}

Status ValidatePerturbConfig(const PerturbConfig& config) {
  switch (config.mechanism) {
    case PerturbMechanism::kNoise:
      if (!std::isfinite(config.noise_scale) || config.noise_scale <= 0.0) {
        return Status::InvalidArgument(
            "noise_scale must be finite and > 0, got " +
            FormatDouble(config.noise_scale, 6));
      }
      break;
    case PerturbMechanism::kRankSwap:
      if (!std::isfinite(config.swap_window) || config.swap_window <= 0.0 ||
          config.swap_window > 1.0) {
        return Status::InvalidArgument(
            "swap_window must lie in (0, 1], got " +
            FormatDouble(config.swap_window, 6));
      }
      break;
    case PerturbMechanism::kMicroaggregation:
      if (config.k < 2) {
        return Status::InvalidArgument("microaggregation needs k >= 2, got " +
                                       std::to_string(config.k));
      }
      break;
    default:
      return Status::InvalidArgument("unknown perturbation mechanism");
  }
  return Status::Ok();
}

StatusOr<PerturbConfig> PerturbConfigFromParams(
    const std::map<std::string, std::string>& params) {
  PerturbConfig config;
  for (const auto& [key, value] : params) {
    if (key == "mechanism") {
      MDC_ASSIGN_OR_RETURN(config.mechanism, ParsePerturbMechanism(value));
    } else if (key == "seed") {
      std::optional<int64_t> parsed = ParseInt64(value);
      if (!parsed.has_value() || *parsed < 0) {
        return Status::InvalidArgument("bad perturb seed '" + value + "'");
      }
      config.seed = static_cast<uint64_t>(*parsed);
    } else if (key == "noise_scale") {
      std::optional<double> parsed = ParseDouble(value);
      if (!parsed.has_value()) {
        return Status::InvalidArgument("bad noise_scale '" + value + "'");
      }
      config.noise_scale = *parsed;
    } else if (key == "swap_window") {
      std::optional<double> parsed = ParseDouble(value);
      if (!parsed.has_value()) {
        return Status::InvalidArgument("bad swap_window '" + value + "'");
      }
      config.swap_window = *parsed;
    } else if (key == "k") {
      std::optional<int64_t> parsed = ParseInt64(value);
      if (!parsed.has_value() || *parsed < 0 || *parsed > 1 << 30) {
        return Status::InvalidArgument("bad perturb k '" + value + "'");
      }
      config.k = static_cast<int>(*parsed);
    } else {
      return Status::InvalidArgument("unknown perturb param '" + key + "'");
    }
  }
  MDC_RETURN_IF_ERROR(ValidatePerturbConfig(config));
  return config;
}

StatusOr<std::string> PerturbCheckpoint::SaveCheckpoint() const {
  if (!captured) {
    return Status::FailedPrecondition("no perturb state captured");
  }
  SnapshotWriter writer(SnapshotKind::kPerturb, kPerturbPayloadVersion);
  writer.WriteU64(config_hash);
  writer.WriteU64(rows);
  writer.WriteU64(next_column);
  writer.WriteU64(done_values.size());
  for (double v : done_values) writer.WriteDouble(v);
  return writer.Finish();
}

Status PerturbCheckpoint::ResumeFrom(std::string_view bytes) {
  MDC_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(bytes, SnapshotKind::kPerturb,
                           kPerturbPayloadVersion));
  PerturbCheckpoint loaded;
  MDC_ASSIGN_OR_RETURN(loaded.config_hash, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(loaded.rows, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(loaded.next_column, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
  if (count > reader.remaining() / sizeof(double)) {
    return Status::InvalidArgument("perturb checkpoint: value count exceeds "
                                   "payload");
  }
  if (loaded.rows == 0 || count != loaded.next_column * loaded.rows) {
    return Status::InvalidArgument(
        "perturb checkpoint: value count disagrees with column position");
  }
  loaded.done_values.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MDC_ASSIGN_OR_RETURN(double v, reader.ReadDouble());
    loaded.done_values.push_back(v);
  }
  MDC_RETURN_IF_ERROR(reader.ExpectEnd());
  loaded.captured = true;
  *this = std::move(loaded);
  return Status::Ok();
}

StatusOr<PerturbResult> PerturbAnonymize(
    std::shared_ptr<const Dataset> original, const PerturbConfig& config,
    RunContext* run, PerturbCheckpoint* checkpoint) {
  MDC_RETURN_IF_ERROR(ValidatePerturbConfig(config));
  if (original == nullptr || original->row_count() == 0) {
    return Status::InvalidArgument("perturbation needs a non-empty dataset");
  }
  const Schema& schema = original->schema();
  std::vector<size_t> columns;
  for (size_t qi : schema.QuasiIdentifierIndices()) {
    AttributeType type = schema.attribute(qi).type;
    if (type == AttributeType::kInt || type == AttributeType::kReal) {
      columns.push_back(qi);
    }
  }
  if (columns.empty()) {
    return Status::InvalidArgument(
        "perturbation needs at least one numeric quasi-identifier column");
  }
  // The kernels order and average finite values only (an int column
  // always is): a NaN or an infinity is refused before any work, so no
  // release carries one.
  for (size_t column : columns) {
    if (schema.attribute(column).type != AttributeType::kReal) continue;
    for (double value : original->reals(column)) {
      if (!std::isfinite(value)) {
        return Status::InvalidArgument(
            "perturbation: column " + schema.attribute(column).name +
            " contains a non-finite value");
      }
    }
  }
  const size_t rows = original->row_count();
  const uint64_t fingerprint = ConfigHash(config, rows, columns.size());
  RunContext::ChargeMemory(run, columns.size() * rows * sizeof(double));

  // Column-major buffer of released values, one slot per numeric QI
  // column. A checkpoint pre-fills the completed prefix.
  std::vector<std::vector<double>> released(columns.size());
  size_t start = 0;
  if (checkpoint != nullptr && checkpoint->has_state()) {
    if (checkpoint->config_hash != fingerprint ||
        checkpoint->rows != rows ||
        checkpoint->next_column > columns.size()) {
      return Status::InvalidArgument(
          "perturb checkpoint does not match this dataset/config");
    }
    start = static_cast<size_t>(checkpoint->next_column);
    for (size_t c = 0; c < start; ++c) {
      released[c].assign(checkpoint->done_values.begin() + c * rows,
                         checkpoint->done_values.begin() + (c + 1) * rows);
    }
  }

  // Admission charges `rows` steps per column, in column order, so a
  // budget expires at the same column for every thread count; commits
  // advance the deterministic perturb.* counters in column order.
  ThreadPool pool(ThreadPool::ResolveThreadCount(config.threads));
  size_t next = start;
  Status status = RunWaves(
      pool, next, columns.size(),
      [&](size_t) -> StatusOr<WaveAdmit> {
        MDC_RETURN_IF_ERROR(RunContext::Check(run, rows));
        return WaveAdmit::kRun;
      },
      [&](size_t c) {
        return RunMechanism(config, original->Numbers(columns[c]), c);
      },
      [&](size_t c, std::vector<double>& values) -> Status {
        released[c] = std::move(values);
        MDC_METRIC_INC("perturb.columns_committed");
        MDC_METRIC_ADD("perturb.cells_perturbed", rows);
        return Status::Ok();
      });
  if (!status.ok()) {
    if (checkpoint != nullptr) {
      checkpoint->config_hash = fingerprint;
      checkpoint->rows = rows;
      checkpoint->next_column = next;
      checkpoint->done_values.clear();
      checkpoint->done_values.reserve(next * rows);
      for (size_t c = 0; c < next; ++c) {
        checkpoint->done_values.insert(checkpoint->done_values.end(),
                                       released[c].begin(),
                                       released[c].end());
      }
      checkpoint->captured = true;
    }
    return status;
  }

  // Release schema: perturbed columns become kReal (noise offsets and
  // group means are not integers); everything else keeps its type.
  std::vector<AttributeDef> attributes = schema.attributes();
  for (size_t c : columns) attributes[c].type = AttributeType::kReal;
  MDC_ASSIGN_OR_RETURN(Schema release_schema,
                       Schema::Create(std::move(attributes)));
  std::vector<Dataset::Column> release_columns =
      original->CopyColumnsExcept(columns);
  for (size_t c = 0; c < columns.size(); ++c) {
    release_columns[columns[c]].reals = std::move(released[c]);
  }
  MDC_ASSIGN_OR_RETURN(Dataset release,
                       Dataset::FromColumns(std::move(release_schema),
                                            std::move(release_columns)));

  MDC_METRIC_INC("perturb.runs");
  PerturbResult result;
  result.anonymization.original = std::move(original);
  result.anonymization.release = std::move(release);
  result.anonymization.qi_columns = columns;
  result.anonymization.suppressed.assign(rows, false);
  result.anonymization.algorithm = PerturbMechanismName(config.mechanism);
  result.perturbed_columns = std::move(columns);
  result.run_stats = RunContext::Stats(run);
  return result;
}

}  // namespace mdc
