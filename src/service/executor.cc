#include "service/executor.h"

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "anonymize/clustering.h"
#include "anonymize/datafly.h"
#include "anonymize/mondrian.h"
#include "anonymize/optimal_lattice.h"
#include "anonymize/perturb/perturb.h"
#include "anonymize/samarati.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "core/compare_engine.h"
#include "core/permutation_metrics.h"
#include "core/property_matrix.h"
#include "core/report.h"
#include "hierarchy/spec_parser.h"
#include "paper/paper_data.h"
#include "privacy/k_anonymity.h"

namespace mdc::service {
namespace {

using ParamMap = std::map<std::string, std::string>;

// An absent or empty param reads as `fallback`.
std::string GetParam(const ParamMap& params, const std::string& key,
                     const std::string& fallback = "") {
  auto it = params.find(key);
  return it == params.end() || it->second.empty() ? fallback : it->second;
}

// What every algorithm run of one job shares: the loaded inputs, the
// parsed knobs, and the job's view of the serve command's resident
// dataset cache.
struct JobContext {
  std::shared_ptr<const Dataset> data;
  HierarchySet hierarchies;
  int k = 2;
  double max_suppression = 0.0;
  PerturbConfig perturb;  // Base knobs; each mechanism entry sets its own.
  int threads = 1;
  RunContext* run = nullptr;
  // Non-null when the inputs were resolved through the cache; `resolved`
  // then keys the shared encoded bundle and the derived-model store.
  DatasetCache* cache = nullptr;
  DatasetCache::Resolved resolved;
  // The counter-replaying model store may only stand in for complete,
  // repeatable work: no budget (it could truncate the build) and no resume
  // checkpoint (the replayed delta must match a from-scratch build).
  bool derived_ok = false;
  // Raw algorithm knobs ("|k|max_suppression|seed|noise_scale|
  // swap_window"), appended to the release name to key derived models.
  std::string key_suffix;

  // The entry's shared dictionary-encode bundle, or null without a cache
  // or when the build failed (the search then builds fresh, so the failing
  // Status surfaces exactly where it does without a cache).
  std::shared_ptr<const EncodedBundle> EncodedOrNull() const {
    if (cache == nullptr) return nullptr;
    auto bundle_or = cache->Encoded(resolved);
    if (!bundle_or.ok()) return nullptr;
    return std::move(bundle_or).value();
  }
};

// One algorithm's output, either family.
struct Release {
  Anonymization anonymization;
  std::optional<EquivalencePartition> partition;  // Generalization only.
  RunStats run_stats;
  size_t perturbed_columns = 0;                   // Perturbative only.
};

// ---------------------------------------------------------------------------
// The registry: name -> config + run call, with an optional Checkpointable
// hook. `checkpoint` is null or an object made by the entry's own
// new_checkpoint.

struct AlgorithmEntry {
  const char* name;
  bool perturbative;
  bool full_domain;  // Searches a hierarchy lattice: needs hierarchies.
  StatusOr<Release> (*run)(const JobContext& job, Checkpointable* checkpoint);
  std::unique_ptr<Checkpointable> (*new_checkpoint)();
};

StatusOr<Release> RunDatafly(const JobContext& job, Checkpointable*) {
  MDC_ASSIGN_OR_RETURN(
      DataflyResult result,
      DataflyAnonymize(job.data, job.hierarchies,
                       DataflyConfig{job.k, {job.max_suppression}}, job.run));
  return Release{std::move(result.evaluation.anonymization),
                 std::move(result.evaluation.partition), result.run_stats};
}

StatusOr<Release> RunSamarati(const JobContext& job, Checkpointable*) {
  SamaratiConfig config;
  config.k = job.k;
  config.suppression = {job.max_suppression};
  config.threads = job.threads;
  config.encoded = job.EncodedOrNull();
  MDC_ASSIGN_OR_RETURN(SamaratiResult result,
                       SamaratiAnonymize(job.data, job.hierarchies, config,
                                         ProxyLoss, job.run));
  return Release{std::move(result.best.anonymization),
                 std::move(result.best.partition), result.run_stats};
}

StatusOr<Release> RunOptimal(const JobContext& job,
                             Checkpointable* checkpoint) {
  OptimalSearchConfig config;
  config.k = job.k;
  config.suppression = {job.max_suppression};
  config.threads = job.threads;
  config.encoded = job.EncodedOrNull();
  MDC_ASSIGN_OR_RETURN(
      OptimalSearchResult result,
      OptimalLatticeSearch(job.data, job.hierarchies, config, ProxyLoss,
                           job.run,
                           static_cast<OptimalLatticeCheckpoint*>(checkpoint)));
  return Release{std::move(result.best.anonymization),
                 std::move(result.best.partition), result.run_stats};
}

StatusOr<Release> RunMondrian(const JobContext& job, Checkpointable*) {
  MDC_ASSIGN_OR_RETURN(
      MondrianResult result,
      MondrianAnonymize(job.data, MondrianConfig{job.k}, job.run));
  return Release{std::move(result.anonymization), std::move(result.partition),
                 result.run_stats};
}

StatusOr<Release> RunCluster(const JobContext& job, Checkpointable*) {
  MDC_ASSIGN_OR_RETURN(
      ClusteringResult result,
      KMemberClusterAnonymize(job.data, ClusteringConfig{job.k}, job.run));
  return Release{std::move(result.anonymization), std::move(result.partition),
                 result.run_stats};
}

template <PerturbMechanism kMechanism>
StatusOr<Release> RunPerturb(const JobContext& job,
                             Checkpointable* checkpoint) {
  PerturbConfig config = job.perturb;
  config.mechanism = kMechanism;
  config.threads = job.threads;
  MDC_ASSIGN_OR_RETURN(
      PerturbResult result,
      PerturbAnonymize(job.data, config, job.run,
                       static_cast<PerturbCheckpoint*>(checkpoint)));
  Release release{std::move(result.anonymization), std::nullopt,
                  result.run_stats};
  release.perturbed_columns = result.perturbed_columns.size();
  return release;
}

template <typename Checkpoint>
std::unique_ptr<Checkpointable> NewCheckpoint() {
  return std::make_unique<Checkpoint>();
}

constexpr AlgorithmEntry kRegistry[] = {
    {"datafly", false, true, RunDatafly, nullptr},
    {"samarati", false, true, RunSamarati, nullptr},
    {"optimal", false, true, RunOptimal,
     NewCheckpoint<OptimalLatticeCheckpoint>},
    {"mondrian", false, false, RunMondrian, nullptr},
    {"cluster", false, false, RunCluster, nullptr},
    {"noise", true, false, RunPerturb<PerturbMechanism::kNoise>,
     NewCheckpoint<PerturbCheckpoint>},
    {"rankswap", true, false, RunPerturb<PerturbMechanism::kRankSwap>,
     NewCheckpoint<PerturbCheckpoint>},
    {"microagg", true, false, RunPerturb<PerturbMechanism::kMicroaggregation>,
     NewCheckpoint<PerturbCheckpoint>},
};

// Perturbative names resolve only where `perturbative_ok`; the error lists
// the generalization names either way.
StatusOr<const AlgorithmEntry*> FindAlgorithm(const std::string& name,
                                              bool perturbative_ok) {
  std::string known;
  for (const AlgorithmEntry& entry : kRegistry) {
    if (name == entry.name && (perturbative_ok || !entry.perturbative)) {
      return &entry;
    }
    if (!entry.perturbative) {
      known += known.empty() ? entry.name : std::string("|") + entry.name;
    }
  }
  return Status::InvalidArgument("unknown algorithm '" + name + "' (" +
                                 known + ")");
}

// ---------------------------------------------------------------------------
// Params and inputs.

Status ParseKnobs(const ParamMap& params, const std::string& label,
                  JobContext& job) {
  if (std::string text = GetParam(params, "k"); !text.empty()) {
    std::optional<int64_t> parsed = ParseInt64(text);
    if (!parsed.has_value() || !std::in_range<int>(*parsed)) {
      return Status::InvalidArgument(label + "bad k '" + text + "'");
    }
    job.k = static_cast<int>(*parsed);
  }
  if (std::string text = GetParam(params, "max_suppression"); !text.empty()) {
    std::optional<double> parsed = ParseDouble(text);
    // The negated range test also rejects NaN.
    if (!parsed.has_value() || !(*parsed >= 0.0 && *parsed <= 1.0)) {
      return Status::InvalidArgument(label + "bad max_suppression '" + text +
                                     "' (a fraction in [0, 1])");
    }
    job.max_suppression = *parsed;
  }
  return Status::Ok();
}

// The perturbation knobs of a param map; `k` doubles as the
// microaggregation group size so one knob serves both families.
StatusOr<PerturbConfig> PerturbKnobs(const ParamMap& params, int k) {
  ParamMap knobs;
  for (const char* key : {"mechanism", "seed", "noise_scale", "swap_window"}) {
    auto it = params.find(key);
    if (it != params.end()) knobs[key] = it->second;
  }
  MDC_ASSIGN_OR_RETURN(PerturbConfig config, PerturbConfigFromParams(knobs));
  if (k >= 2) config.k = k;
  return config;
}

// dataset=table1 (the paper's Table 1, the default) or input+schema
// [+hierarchies] files. File-backed inputs go through the resident cache
// when the serve command has one, unless the job says cache=off.
Status LoadInputs(const ParamMap& params, const std::string& label,
                  DatasetCache* cache, JobContext& job) {
  const std::string dataset = GetParam(params, "dataset");
  const std::string input = GetParam(params, "input");
  if (dataset == "table1" || (dataset.empty() && input.empty())) {
    MDC_ASSIGN_OR_RETURN(job.data, paper::Table1());
    MDC_ASSIGN_OR_RETURN(job.hierarchies, paper::HierarchySetA());
    return Status::Ok();
  }
  if (!dataset.empty()) {
    return Status::InvalidArgument(label + "unknown dataset '" + dataset +
                                   "' (table1 or input+schema)");
  }
  const std::string schema_spec = GetParam(params, "schema");
  const std::string hierarchies_path = GetParam(params, "hierarchies");
  if (cache != nullptr && GetParam(params, "cache") != "off") {
    MDC_ASSIGN_OR_RETURN(job.resolved,
                         cache->Resolve(input, schema_spec, hierarchies_path));
    job.cache = cache;
    job.data = job.resolved.data;
    job.hierarchies = job.resolved.hierarchies;
    return Status::Ok();
  }
  MDC_ASSIGN_OR_RETURN(LoadedInputs loaded,
                       LoadInputFiles(input, schema_spec, hierarchies_path));
  job.data = std::move(loaded.data);
  job.hierarchies = std::move(loaded.hierarchies);
  return Status::Ok();
}

// Fails a file-backed job that cannot run before its input is read, with
// the Status its first failing stage would return after the parse: a
// full-domain search without hierarchies, or a perturbation or
// permutation compare (`needs_numeric_qi`) without an int or real
// quasi-identifier. A schema spec that does not parse is left to
// LoadInputs.
Status Preflight(const ParamMap& params,
                 const std::vector<const AlgorithmEntry*>& entries,
                 bool needs_numeric_qi) {
  if (GetParam(params, "input").empty() ||
      !GetParam(params, "dataset").empty()) {
    return Status::Ok();
  }
  StatusOr<Schema> schema = ParseSchemaSpec(GetParam(params, "schema"));
  if (!schema.ok()) return Status::Ok();
  if (GetParam(params, "hierarchies").empty()) {
    for (const AlgorithmEntry* entry : entries) {
      if (entry->full_domain) {
        return HierarchySet{}.CoversQuasiIdentifiers(*schema);
      }
    }
  }
  if (!needs_numeric_qi) return Status::Ok();
  const std::vector<size_t> qi = schema->QuasiIdentifierIndices();
  for (size_t column : qi) {
    if (schema->attribute(column).type != AttributeType::kString) {
      return Status::Ok();
    }
  }
  // PerturbAnonymize fails first when a mechanism runs first; otherwise a
  // generalization runs (unless it has no quasi-identifier to work on) and
  // PermutationModelFor fails on its release.
  if (entries.front()->perturbative) {
    return Status::InvalidArgument(
        "perturbation needs at least one numeric quasi-identifier column");
  }
  if (!qi.empty()) {
    return Status::InvalidArgument(
        "permutation model needs at least one numeric quasi-identifier "
        "column");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Permutation-paradigm comparison.

StatusOr<PermutationModel> ModelOf(const Release& release,
                                   const JobContext& job,
                                   OriginalOrders* originals = nullptr) {
  PermutationMetricsOptions options;
  options.threads = job.threads;
  return PermutationModelFor(
      release.anonymization,
      release.partition.has_value() ? &*release.partition : nullptr, options,
      job.run, originals);
}

// One release reduced to its permutation model, its property vectors
// renamed after the release so a PropertyMatrix row carries the algorithm
// it scores.
struct ModeledRelease {
  std::string name;
  PermutationModel model;
  bool truncated = false;
};

StatusOr<ModeledRelease> ModelRelease(const AlgorithmEntry& entry,
                                      const JobContext& job,
                                      OriginalOrders& originals) {
  ModeledRelease out;
  out.name = entry.name;
  // Derived-model store: a hit returns the resident property vectors and
  // replays the deterministic-counter delta the skipped build would have
  // charged (see service/dataset_cache.h) — artifacts AND counters stay
  // byte-identical with the cache off.
  const std::string model_key = out.name + job.key_suffix;
  std::map<std::string, uint64_t> counters_before;
  if (job.derived_ok) {
    if (std::optional<CachedModel> cached =
            job.cache->FindModel(job.resolved.content_hash, model_key)) {
      out.model.rows = cached->rows;
      out.model.privacy = cached->matrix->ToVector(0);
      out.model.utility = cached->matrix->ToVector(1);
      return out;
    }
    counters_before = DatasetCache::WorkCounterSnapshot();
  }
  MDC_ASSIGN_OR_RETURN(Release release, entry.run(job, nullptr));
  out.truncated = release.run_stats.truncated;
  MDC_ASSIGN_OR_RETURN(out.model, ModelOf(release, job, &originals));
  out.model.privacy = PropertyVector(out.name + "-privacy",
                                     out.model.privacy.values());
  out.model.utility = PropertyVector(out.name + "-utility",
                                     out.model.utility.values());
  if (job.derived_ok && !out.truncated) {
    PropertySet set;
    set.push_back(out.model.privacy);
    set.push_back(out.model.utility);
    if (auto matrix_or = PropertyMatrix::FromSet(set); matrix_or.ok()) {
      CachedModel cached;
      cached.rows = out.model.rows;
      cached.matrix = std::make_shared<const PropertyMatrix>(
          std::move(matrix_or).value());
      job.cache->PutModel(job.resolved.content_hash, model_key, cached,
                          DatasetCache::WorkCounterDelta(counters_before));
    }
  }
  return out;
}

// Cross-family comparison under the permutation paradigm: every release is
// reduced to its two Def.-1 property vectors, packed into a PropertyMatrix
// per dimension, and ranked with the Table-4 all-pairs engine.
StatusOr<std::string> PermutationReport(
    const std::vector<const AlgorithmEntry*>& entries, const JobContext& job,
    bool* truncated) {
  // Every release is of job.data, so its models share the original's
  // orders: the first model built ranks them, a model-cache hit none.
  OriginalOrders originals;
  std::vector<ModeledRelease> releases;
  for (const AlgorithmEntry* entry : entries) {
    MDC_ASSIGN_OR_RETURN(ModeledRelease modeled,
                         ModelRelease(*entry, job, originals));
    if (modeled.truncated) *truncated = true;
    releases.push_back(std::move(modeled));
  }

  std::string text = "permutation comparison (" +
                     std::to_string(releases.size()) + " releases, N=" +
                     std::to_string(releases.front().model.rows) + ")\n";
  TextTable summary;
  summary.SetHeader({"release", "mean_privacy", "mean_utility"});
  for (const ModeledRelease& release : releases) {
    summary.AddRow({release.name,
                    FormatDouble(release.model.privacy.Mean(), 4),
                    FormatDouble(release.model.utility.Mean(), 4)});
  }
  text += summary.Render();

  // Dominance wins per release across both dimensions.
  std::vector<int> wins(releases.size(), 0);
  for (const bool privacy_dimension : {true, false}) {
    const std::string dimension = privacy_dimension ? "privacy" : "utility";
    PropertySet set;
    for (const ModeledRelease& release : releases) {
      set.push_back(privacy_dimension ? release.model.privacy
                                      : release.model.utility);
    }
    MDC_ASSIGN_OR_RETURN(PropertyMatrix matrix, PropertyMatrix::FromSet(set));
    AllPairsOptions options;
    options.threads = job.threads;
    // Ideal point: normalized displacement (and its complement) live in
    // [0, 1], so the all-ones vector is the per-dimension optimum.
    options.d_max = PropertyVector(
        "ideal", std::vector<double>(matrix.cols(), 1.0));
    MDC_ASSIGN_OR_RETURN(AllPairsResult pairs,
                         AllPairsCompare(matrix, options, job.run));
    TextTable table;
    table.SetHeader({"pair (" + dimension + ")", "relation", "cov12", "cov21",
                     "spr12", "spr21"});
    for (const PairComparison& pair : pairs.pairs) {
      table.AddRow({releases[pair.first].name + " vs " +
                        releases[pair.second].name,
                    DominanceRelationName(pair.relation),
                    FormatDouble(pair.cov12, 4), FormatDouble(pair.cov21, 4),
                    FormatDouble(pair.spr12, 4),
                    FormatDouble(pair.spr21, 4)});
      if (pair.relation == DominanceRelation::kFirstDominates) {
        ++wins[pair.first];
      } else if (pair.relation == DominanceRelation::kSecondDominates) {
        ++wins[pair.second];
      }
    }
    text += table.Render();
    TextTable ranks;
    ranks.SetHeader({"release", "P_rank(" + dimension + ")"});
    for (size_t r = 0; r < releases.size(); ++r) {
      ranks.AddRow({releases[r].name, FormatDouble(pairs.ranks[r], 4)});
    }
    text += ranks.Render();
  }
  for (size_t r = 0; r < releases.size(); ++r) {
    text += "dominance wins: " + releases[r].name + "=" +
            std::to_string(wins[r]) + "\n";
  }
  return text;
}

// ---------------------------------------------------------------------------
// The kinds.

Status Execute(const ServiceCore::ExecRequest& request, int threads,
               std::string* summary, ServiceCore::ExecResult& out) {
  const JobSpec& spec = request.spec;
  const ParamMap& params = spec.params;
  const std::string& kind = spec.kind;
  const std::string label = spec.id.empty() ? "" : "job " + spec.id + ": ";
  if (kind != "anonymize" && kind != "perturb" && kind != "compare" &&
      kind != "report") {
    return Status::InvalidArgument(label + "unknown kind '" + kind +
                                   "' (anonymize|perturb|compare|report)");
  }
  JobContext job;
  job.threads = threads;
  job.run = request.run;
  MDC_RETURN_IF_ERROR(ParseKnobs(params, label, job));

  // Resolve the job's algorithm names through the registry.
  std::vector<const AlgorithmEntry*> entries;
  bool permutation = false;  // Compare under the permutation paradigm.
  ComparisonOptions comparison;  // The two-release compare.
  if (kind == "perturb") {
    MDC_ASSIGN_OR_RETURN(job.perturb, PerturbKnobs(params, job.k));
    MDC_ASSIGN_OR_RETURN(
        const AlgorithmEntry* entry,
        FindAlgorithm(PerturbMechanismName(job.perturb.mechanism), true));
    entries.push_back(entry);
  } else {
    std::vector<std::string> names =
        kind == "compare"
            ? StrSplit(GetParam(params, "algorithms", "datafly,mondrian"), ',')
            : std::vector<std::string>{GetParam(params, "algorithm",
                                                "mondrian")};
    bool perturbative = false;
    for (const std::string& name : names) {
      perturbative = perturbative || IsPerturbMechanismName(name);
    }
    // Cross-family or multi-way compares rank every release in the
    // permutation frame; two generalizations get the two-release report.
    permutation = kind == "compare" && (perturbative || names.size() > 2);
    if (permutation && names.size() < 2) {
      return Status::InvalidArgument(
          "permutation comparison needs at least two algorithm names");
    }
    if (kind == "compare" && !permutation) {
      if (names.size() != 2) {
        return Status::InvalidArgument(
            label + "algorithms needs two comma-separated names");
      }
      if (std::string sensitive = GetParam(params, "sensitive");
          !sensitive.empty()) {
        std::optional<int64_t> parsed = ParseInt64(sensitive);
        if (!parsed.has_value() || *parsed < 0) {
          return Status::InvalidArgument(label +
                                         "sensitive must be a column index");
        }
        comparison.sensitive_column = static_cast<size_t>(*parsed);
      } else if (GetParam(params, "input").empty()) {
        comparison.sensitive_column = paper::kMaritalColumn;  // table1
      }
    }
    for (const std::string& name : names) {
      MDC_ASSIGN_OR_RETURN(
          const AlgorithmEntry* entry,
          FindAlgorithm(name, permutation || kind == "report"));
      entries.push_back(entry);
    }
    if (permutation || perturbative) {
      MDC_ASSIGN_OR_RETURN(job.perturb, PerturbKnobs(params, job.k));
    }
  }

  MDC_RETURN_IF_ERROR(
      Preflight(params, entries, kind == "perturb" || permutation));
  MDC_RETURN_IF_ERROR(LoadInputs(params, label, request.cache, job));
  job.derived_ok = job.cache != nullptr &&
                   (job.run == nullptr || !job.run->bounded()) &&
                   request.resume_checkpoint.empty();
  job.key_suffix = "|" + GetParam(params, "k") + "|" +
                   GetParam(params, "max_suppression") + "|" +
                   GetParam(params, "seed") + "|" +
                   GetParam(params, "noise_scale") + "|" +
                   GetParam(params, "swap_window");

  auto append_run_stats = [&](const RunStats& stats) {
    if (summary != nullptr && job.run != nullptr) {
      *summary += "run stats: " + stats.ToString() + "\n";
    }
  };
  if (kind == "compare") {
    if (permutation) {
      MDC_ASSIGN_OR_RETURN(out.artifact,
                           PermutationReport(entries, job, &out.truncated));
    } else {
      MDC_ASSIGN_OR_RETURN(Release first, entries[0]->run(job, nullptr));
      MDC_ASSIGN_OR_RETURN(Release second, entries[1]->run(job, nullptr));
      MDC_ASSIGN_OR_RETURN(
          ComparisonReport report,
          CompareAnonymizations(first.anonymization, *first.partition,
                                second.anonymization, *second.partition,
                                comparison, job.run));
      out.truncated = first.run_stats.truncated || second.run_stats.truncated;
      out.artifact = report.ToText();
    }
    append_run_stats(RunContext::Stats(job.run));
    return Status::Ok();
  }

  // Single-release kinds. anonymize and perturb thread the entry's
  // optional checkpoint hook through the attempt.
  const AlgorithmEntry& entry = *entries.front();
  std::unique_ptr<Checkpointable> checkpoint;
  if (kind != "report" && entry.new_checkpoint != nullptr) {
    checkpoint = entry.new_checkpoint();
    if (!request.resume_checkpoint.empty()) {
      MDC_RETURN_IF_ERROR(checkpoint->ResumeFrom(request.resume_checkpoint));
    }
  }
  StatusOr<Release> release_or = entry.run(job, checkpoint.get());
  if (checkpoint != nullptr && checkpoint->has_state()) {
    // Budget expiry (drain, deadline, steps) captured the sweep position;
    // hand it to the service for the next attempt/life.
    if (auto bytes = checkpoint->SaveCheckpoint(); bytes.ok()) {
      out.checkpoint = std::move(bytes).value();
    }
  }
  if (!release_or.ok()) return release_or.status();
  const Release& release = *release_or;
  const Anonymization& anonymization = release.anonymization;
  out.truncated = release.run_stats.truncated;

  if (kind == "report") {
    out.artifact = anonymization.release.ToText();
    if (release.partition.has_value()) {
      double achieved =
          KAnonymity(1).Measure(anonymization, *release.partition);
      out.artifact += "achieved_k=" + std::to_string(achieved) +
                      " suppressed=" +
                      std::to_string(anonymization.SuppressedCount()) + "\n";
    } else {
      MDC_ASSIGN_OR_RETURN(PermutationModel model, ModelOf(release, job));
      out.artifact += PermutationModelSummary(model);
    }
    return Status::Ok();
  }

  out.artifact = anonymization.release.ToCsv();
  if (summary != nullptr) {
    char line[256];
    if (release.partition.has_value()) {
      double achieved =
          KAnonymity(1).Measure(anonymization, *release.partition);
      std::snprintf(line, sizeof(line),
                    "%s: %zu rows, achieved k=%.0f, %zu suppressed\n",
                    entry.name, anonymization.row_count(), achieved,
                    anonymization.SuppressedCount());
      *summary = line;
    } else {
      MDC_ASSIGN_OR_RETURN(PermutationModel model, ModelOf(release, job));
      std::snprintf(line, sizeof(line), "%s: %zu rows, %zu columns perturbed\n",
                    entry.name, anonymization.release.row_count(),
                    release.perturbed_columns);
      *summary = line + PermutationModelSummary(model);
    }
  }
  append_run_stats(release.run_stats);
  return Status::Ok();
}

}  // namespace

ServiceCore::ExecResult ExecuteJob(const ServiceCore::ExecRequest& request,
                                   int threads, std::string* summary) {
  ServiceCore::ExecResult out;
  out.status = Execute(request, threads, summary, out);
  return out;
}

}  // namespace mdc::service
