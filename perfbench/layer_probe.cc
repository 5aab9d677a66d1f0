// Layer probe for perfbench/run.py: the library calls mdc_cli makes for a
// job, made one layer at a time with a steady_clock span around each, so a
// traced benchmark run can say where a job's time goes.
//
//   layer_probe census <rows> <seed> <out.csv>
//
// writes the benchmark's input: the project's seeded census microdata
// (datagen/census_generator.h, default shape) as CSV.
//
//   layer_probe --input data.csv --schema <spec>
//       --k 5 [--seed 1] --reps 3 --out-dir <dir>
//       --job anonymize:mondrian [--job compare:mondrian,noise,rankswap ...]
//
// One pass runs every --job in order, each starting from the file on disk
// as a fresh mdc_cli process does:
//
//   anonymize:<name>     read, parse, anonymize|perturb, render, write
//   compare:<a>,<b>,...  read, parse, anonymize|perturb + model for each
//                        release, then compare (both dimensions)
//
// Prints one JSON object: every layer's time per pass in ms (the median
// over --reps passes; 0 for a layer the jobs do not touch), the median
// pass time, and the spans of the last pass in Chrome-trace form. Layer
// spans are leaves, so a layer's time is its self time.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anonymize/mondrian.h"
#include "anonymize/perturb/perturb.h"
#include "common/csv.h"
#include "common/durable_io.h"
#include "common/strings.h"
#include "core/compare_engine.h"
#include "core/permutation_metrics.h"
#include "core/property_matrix.h"
#include "datagen/census_generator.h"
#include "table/schema.h"

using namespace mdc;

namespace {

constexpr const char* kLayers[] = {"read",    "parse", "anonymize",
                                   "perturb", "model", "compare",
                                   "render",  "write"};

struct Options {
  std::string input;
  std::string schema;
  std::string out_dir;
  int k = 2;
  int reps = 3;
  PerturbConfig perturb;
  std::vector<std::pair<std::string, std::vector<std::string>>> jobs;
};

struct Span {
  std::string name;
  int64_t start_us = 0;
  int64_t dur_us = 0;
  int parent = 0;
};

// Spans of one pass; span ids are 1-based indices into `spans`.
struct Pass {
  std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  std::vector<Span> spans;
  std::map<std::string, double> layer_ms;

  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  }
};

class ScopedSpan {
 public:
  // `layer` spans add their duration to the pass's per-layer totals.
  ScopedSpan(Pass& pass, std::string name, int parent, bool layer)
      : pass_(pass), layer_(layer), start_(std::chrono::steady_clock::now()) {
    pass_.spans.push_back({std::move(name), pass_.NowUs(), 0, parent});
    id_ = static_cast<int>(pass_.spans.size());
  }
  ~ScopedSpan() {
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start_;
    Span& span = pass_.spans[id_ - 1];
    span.dur_us = pass_.NowUs() - span.start_us;
    if (layer_) pass_.layer_ms[span.name] += elapsed.count();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Pass& pass_;
  bool layer_;
  std::chrono::steady_clock::time_point start_;
  int id_ = 0;
};

struct Release {
  Anonymization anonymization;
  std::optional<EquivalencePartition> partition;  // Absent for perturb.
};

StatusOr<Release> RunRelease(Pass& pass, int parent, const std::string& name,
                             std::shared_ptr<const Dataset> data,
                             const Options& options) {
  if (IsPerturbMechanismName(name)) {
    PerturbConfig config = options.perturb;
    MDC_ASSIGN_OR_RETURN(config.mechanism, ParsePerturbMechanism(name));
    ScopedSpan span(pass, "perturb", parent, true);
    MDC_ASSIGN_OR_RETURN(PerturbResult result, PerturbAnonymize(data, config));
    return Release{std::move(result.anonymization), std::nullopt};
  }
  ScopedSpan span(pass, "anonymize", parent, true);
  if (name == "mondrian") {
    MDC_ASSIGN_OR_RETURN(MondrianResult result,
                         MondrianAnonymize(data, MondrianConfig{options.k}));
    return Release{std::move(result.anonymization),
                   std::move(result.partition)};
  }
  return Status::InvalidArgument("unsupported algorithm '" + name + "'");
}

Status RunJob(Pass& pass, const std::string& kind,
              const std::vector<std::string>& names, const Options& options) {
  ScopedSpan job(pass, kind, 0, false);
  std::string csv;
  {
    ScopedSpan span(pass, "read", job.id(), true);
    MDC_ASSIGN_OR_RETURN(csv, ReadFileToString(options.input));
  }
  std::shared_ptr<const Dataset> data;
  {
    ScopedSpan span(pass, "parse", job.id(), true);
    MDC_ASSIGN_OR_RETURN(Schema schema, ParseSchemaSpec(options.schema));
    MDC_ASSIGN_OR_RETURN(Dataset parsed, Dataset::FromCsv(schema, csv));
    data = std::make_shared<const Dataset>(std::move(parsed));
  }

  if (kind == "anonymize") {
    MDC_ASSIGN_OR_RETURN(Release release,
                         RunRelease(pass, job.id(), names.front(), data,
                                    options));
    std::string text;
    {
      ScopedSpan span(pass, "render", job.id(), true);
      text = release.anonymization.release.ToCsv();
    }
    ScopedSpan span(pass, "write", job.id(), true);
    return DurableWriteFile(options.out_dir + "/probe-" + names.front() +
                                ".csv",
                            text);
  }
  if (kind != "compare") {
    return Status::InvalidArgument("unknown job kind '" + kind + "'");
  }

  std::vector<PermutationModel> models;
  for (const std::string& name : names) {
    MDC_ASSIGN_OR_RETURN(
        Release release,
        RunRelease(pass, job.id(), name, data, options));
    ScopedSpan span(pass, "model", job.id(), true);
    MDC_ASSIGN_OR_RETURN(
        PermutationModel model,
        PermutationModelFor(release.anonymization,
                            release.partition ? &*release.partition
                                              : nullptr));
    models.push_back(std::move(model));
  }
  ScopedSpan span(pass, "compare", job.id(), true);
  for (const bool privacy : {true, false}) {
    PropertySet set;
    for (size_t r = 0; r < models.size(); ++r) {
      const PropertyVector& vector =
          privacy ? models[r].privacy : models[r].utility;
      set.push_back(PropertyVector(
          names[r] + (privacy ? "-privacy" : "-utility"), vector.values()));
    }
    MDC_ASSIGN_OR_RETURN(PropertyMatrix matrix, PropertyMatrix::FromSet(set));
    AllPairsOptions all_pairs;
    all_pairs.d_max = PropertyVector(
        "ideal", std::vector<double>(matrix.cols(), 1.0));
    MDC_ASSIGN_OR_RETURN(AllPairsResult pairs,
                         AllPairsCompare(matrix, all_pairs));
    if (pairs.pairs.size() != models.size() * (models.size() - 1) / 2) {
      return Status::Internal("all-pairs comparison lost pairs");
    }
  }
  return Status::Ok();
}

// `layer_probe census <rows> <seed> <out.csv>`.
Status WriteCensus(int argc, char** argv) {
  if (argc != 5) {
    return Status::InvalidArgument(
        "usage: layer_probe census <rows> <seed> <out.csv>");
  }
  const std::optional<int64_t> rows = ParseInt64(argv[2]);
  const std::optional<int64_t> seed = ParseInt64(argv[3]);
  if (!rows.has_value() || *rows < 1 || *rows > 10000000 ||
      !seed.has_value()) {
    return Status::InvalidArgument("bad census rows or seed");
  }
  CensusConfig config;
  config.rows = static_cast<size_t>(*rows);
  config.seed = static_cast<uint64_t>(*seed);
  MDC_ASSIGN_OR_RETURN(CensusData census, GenerateCensus(config));
  return DurableWriteFile(argv[4], census.data->ToCsv());
}

StatusOr<Options> ParseOptions(int argc, char** argv) {
  Options options;
  std::map<std::string, std::string> perturb_params;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag " + flag + " needs a value");
    }
    const std::string value = argv[i + 1];
    if (flag == "--input") {
      options.input = value;
    } else if (flag == "--schema") {
      options.schema = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--k" || flag == "--reps") {
      std::optional<int64_t> parsed = ParseInt64(value);
      if (!parsed.has_value() || *parsed < 1 || *parsed > 1000000) {
        return Status::InvalidArgument("bad " + flag);
      }
      (flag == "--k" ? options.k : options.reps) = static_cast<int>(*parsed);
    } else if (flag == "--seed") {
      perturb_params["seed"] = value;
    } else if (flag == "--job") {
      const size_t colon = value.find(':');
      if (colon == std::string::npos || colon + 1 == value.size()) {
        return Status::InvalidArgument("bad --job '" + value + "'");
      }
      options.jobs.emplace_back(value.substr(0, colon),
                                StrSplit(value.substr(colon + 1), ','));
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (options.input.empty() || options.schema.empty() ||
      options.out_dir.empty() || options.jobs.empty()) {
    return Status::InvalidArgument(
        "usage: layer_probe --input <csv> --schema <spec> --out-dir <dir> "
        "--job <kind>:<names> [--k <n>] [--seed <n>] "
        "[--reps <n>]");
  }
  MDC_ASSIGN_OR_RETURN(options.perturb,
                       PerturbConfigFromParams(perturb_params));
  options.perturb.k = options.k;
  return options;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "census") {
    if (Status status = WriteCensus(argc, argv); !status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 2;
    }
    return 0;
  }
  StatusOr<Options> options = ParseOptions(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "error: %s\n", options.status().ToString().c_str());
    return 2;
  }
  std::map<std::string, std::vector<double>> layer_ms;
  std::vector<double> pass_ms;
  Pass last;
  for (int rep = 0; rep < options->reps; ++rep) {
    Pass pass;
    for (const auto& [kind, names] : options->jobs) {
      if (Status status = RunJob(pass, kind, names, *options); !status.ok()) {
        std::fprintf(stderr, "error: %s job: %s\n", kind.c_str(),
                     status.ToString().c_str());
        return 1;
      }
    }
    pass_ms.push_back(static_cast<double>(pass.NowUs()) / 1000.0);
    for (const char* layer : kLayers) {
      layer_ms[layer].push_back(pass.layer_ms[layer]);
    }
    last = std::move(pass);
  }

  std::string out = "{\"layers_ms\": {";
  for (const char* layer : kLayers) {
    out += std::string(layer == kLayers[0] ? "" : ", ") + "\"" + layer +
           "\": " + std::to_string(Median(layer_ms[layer]));
  }
  out += "}, \"pass_ms\": " + std::to_string(Median(pass_ms)) +
         ", \"traceEvents\": [";
  for (size_t i = 0; i < last.spans.size(); ++i) {
    const Span& span = last.spans[i];
    out += std::string(i == 0 ? "" : ", ") + "{\"name\": \"" + span.name +
           "\", \"cat\": \"probe\", \"ph\": \"X\", \"pid\": 2, \"tid\": 1, " +
           "\"ts\": " + std::to_string(span.start_us) +
           ", \"dur\": " + std::to_string(span.dur_us) +
           ", \"args\": {\"span_id\": " + std::to_string(i + 1) +
           ", \"parent_id\": " + std::to_string(span.parent) + "}}";
  }
  out += "]}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
