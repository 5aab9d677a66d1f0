#include "service/job_spec.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/csv.h"
#include "common/snapshot.h"
#include "common/strings.h"
#include "common/text_table.h"

namespace mdc::service {
namespace {

constexpr uint32_t kJobPayloadVersion = 1;
constexpr uint32_t kOutcomePayloadVersion = 1;

bool IsKnownKind(std::string_view kind) {
  return kind == "anonymize" || kind == "perturb" || kind == "compare" ||
         kind == "report";
}

// splitmix64: small, seedable, platform-stable — delays must be
// reproducible for a fixed config on any libc.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// A non-negative integer budget cell of a jobs-CSV row; empty keeps 0.
Status ParseBudget(const std::string& value, const std::string& column,
                   const std::string& id, int64_t& out) {
  if (value.empty()) return Status::Ok();
  std::optional<int64_t> parsed = ParseInt64(value);
  if (!parsed.has_value() || *parsed < 0) {
    return Status::InvalidArgument("job spec: bad " + column + " for " + id +
                                   ": " + value);
  }
  out = *parsed;
  return Status::Ok();
}

}  // namespace

std::string JobStateName(JobState state) {
  switch (state) {
    case JobState::kPending:
      return "pending";
    case JobState::kOk:
      return "ok";
    case JobState::kTruncated:
      return "truncated";
    case JobState::kQuarantined:
      return "quarantined";
    case JobState::kExhausted:
      return "exhausted";
  }
  return "unknown";
}

size_t CountState(const std::vector<JobOutcome>& outcomes, JobState state) {
  return static_cast<size_t>(std::ranges::count(outcomes, state,
                                                &JobOutcome::state));
}

std::string OutcomeSummary(const std::vector<JobOutcome>& outcomes) {
  TextTable table;
  table.SetHeader({"job", "state", "attempts", "note"});
  for (const JobOutcome& outcome : outcomes) {
    std::string state = JobStateName(outcome.state);
    if (outcome.state != JobState::kPending && outcome.attempts > 1) {
      state += " (retried x" + std::to_string(outcome.attempts - 1) + ")";
    }
    // A truncated job's record names the expired budget; the table keeps
    // notes for failures only.
    table.AddRow({outcome.id, state, std::to_string(outcome.attempts),
                  outcome.state == JobState::kTruncated ? ""
                                                        : outcome.message});
  }
  const size_t pending = CountState(outcomes, JobState::kPending);
  return table.Render() + "\ntotals: ok=" +
         std::to_string(CountState(outcomes, JobState::kOk)) +
         " truncated=" +
         std::to_string(CountState(outcomes, JobState::kTruncated)) +
         " quarantined=" +
         std::to_string(CountState(outcomes, JobState::kQuarantined)) +
         " exhausted=" +
         std::to_string(CountState(outcomes, JobState::kExhausted)) +
         " pending=" + std::to_string(pending) +
         (pending > 0 ? " (aborted)" : "") + "\n";
}

bool IsTransientStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

BackoffSequence::BackoffSequence(int64_t base_ms, int64_t max_ms,
                                 uint64_t seed, uint64_t salt)
    : base_ms_(base_ms),
      max_ms_(max_ms),
      rng_state_(seed ^ salt),
      prev_ms_(base_ms) {}

int64_t BackoffSequence::NextDelayMs() {
  if (base_ms_ <= 0) return 0;
  int64_t ceiling = std::min(max_ms_, prev_ms_ > max_ms_ / 3
                                          ? max_ms_
                                          : 3 * prev_ms_);
  if (ceiling < base_ms_) ceiling = base_ms_;
  uint64_t span = static_cast<uint64_t>(ceiling - base_ms_) + 1;
  prev_ms_ = base_ms_ + static_cast<int64_t>(SplitMix64(&rng_state_) % span);
  return prev_ms_;
}

uint64_t BackoffSalt(std::string_view text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

bool IsValidToken(std::string_view text) {
  if (text.empty() || text.size() > 128 || text == "." || text == "..") {
    return false;
  }
  for (char c : text) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

StatusOr<JobSpec> ParseSubmitSpec(std::string_view text) {
  std::vector<std::string> tokens;
  for (const std::string& token : StrSplit(std::string(text), ' ')) {
    if (!token.empty()) tokens.push_back(token);
  }
  if (tokens.empty()) {
    return Status::InvalidArgument("submit: missing job id");
  }
  JobSpec spec;
  spec.id = tokens[0];
  if (!IsValidToken(spec.id)) {
    return Status::InvalidArgument("submit: job id '" + spec.id +
                                   "' must be [A-Za-z0-9_.-]+");
  }
  for (size_t i = 1; i < tokens.size(); ++i) {
    std::vector<std::string> kv = StrSplit(tokens[i], '=');
    if (kv.size() != 2 || kv[0].empty()) {
      return Status::InvalidArgument("submit: token '" + tokens[i] +
                                     "' is not key=value");
    }
    const std::string& key = kv[0];
    const std::string& value = kv[1];
    if (key == "tenant") {
      if (!IsValidToken(value)) {
        return Status::InvalidArgument("submit: bad tenant '" + value + "'");
      }
      spec.tenant = value;
    } else if (key == "kind") {
      if (!IsKnownKind(value)) {
        return Status::InvalidArgument(
            "submit: unknown kind '" + value +
            "' (anonymize|perturb|compare|report)");
      }
      spec.kind = value;
    } else if (key == "cost") {
      std::optional<int64_t> parsed = ParseInt64(value);
      if (!parsed.has_value() || *parsed <= 0) {
        return Status::InvalidArgument("submit: cost must be positive, got '" +
                                       value + "'");
      }
      spec.cost = static_cast<uint64_t>(*parsed);
    } else if (key == "deadline_ms") {
      std::optional<int64_t> parsed = ParseInt64(value);
      if (!parsed.has_value() || *parsed < 0) {
        return Status::InvalidArgument("submit: bad deadline_ms '" + value +
                                       "'");
      }
      spec.deadline_ms = *parsed;
    } else if (key == "max_steps") {
      std::optional<int64_t> parsed = ParseInt64(value);
      if (!parsed.has_value() || *parsed < 0) {
        return Status::InvalidArgument("submit: bad max_steps '" + value +
                                       "'");
      }
      spec.max_steps = static_cast<uint64_t>(*parsed);
    } else if (key == "cache") {
      // Per-job cache opt-out; validated here so a typo is rejected at
      // submit instead of silently caching. Stored in params — the journal
      // record format is unchanged.
      if (value != "on" && value != "off") {
        return Status::InvalidArgument("submit: bad cache '" + value +
                                       "' (on|off)");
      }
      spec.params[key] = value;
    } else {
      spec.params[key] = value;
    }
  }
  return spec;
}

StatusOr<std::vector<JobSpec>> ParseJobSpecCsv(std::string_view text) {
  MDC_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> rows,
                       ParseCsv(text));
  if (rows.empty()) {
    return Status::InvalidArgument("job spec: empty CSV");
  }
  const std::vector<std::string>& header = rows[0];
  auto id_col = std::ranges::find(header, "id");
  if (id_col == header.end()) {
    return Status::InvalidArgument("job spec: header has no `id` column");
  }
  std::set<std::string> seen;
  std::vector<JobSpec> jobs;
  for (size_t r = 1; r < rows.size(); ++r) {
    const std::vector<std::string>& row = rows[r];
    const std::string where = "job spec: row " + std::to_string(r + 1);
    if (row.size() != header.size()) {
      return Status::InvalidArgument(
          where + " has " + std::to_string(row.size()) +
          " fields, header has " + std::to_string(header.size()));
    }
    JobSpec spec;
    spec.id = row[id_col - header.begin()];
    if (!IsValidToken(spec.id)) {
      // Ids name files under the state dir: `../x` must never escape it.
      return Status::InvalidArgument(where + " has invalid id '" + spec.id +
                                     "' (must be [A-Za-z0-9_.-]+, not . "
                                     "or ..)");
    }
    if (!seen.insert(spec.id).second) {
      return Status::InvalidArgument("job spec: duplicate id " + spec.id);
    }
    for (size_t c = 0; c < header.size(); ++c) {
      const std::string& key = header[c];
      if (key == "id") continue;
      if (key == "deadline_ms") {
        MDC_RETURN_IF_ERROR(
            ParseBudget(row[c], key, spec.id, spec.deadline_ms));
      } else if (key == "max_steps") {
        int64_t steps = 0;
        MDC_RETURN_IF_ERROR(ParseBudget(row[c], key, spec.id, steps));
        spec.max_steps = static_cast<uint64_t>(steps);
      } else {
        spec.params[key] = row[c];
      }
    }
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

std::string SerializeJobSpec(const JobSpec& spec, uint64_t seq) {
  SnapshotWriter writer(SnapshotKind::kServiceJob, kJobPayloadVersion);
  writer.WriteU64(seq);
  writer.WriteString(spec.id);
  writer.WriteString(spec.tenant);
  writer.WriteString(spec.kind);
  writer.WriteU64(spec.cost);
  writer.WriteI64(spec.deadline_ms);
  writer.WriteU64(spec.max_steps);
  writer.WriteU64(spec.params.size());
  for (const auto& [key, value] : spec.params) {
    writer.WriteString(key);
    writer.WriteString(value);
  }
  return writer.Finish();
}

StatusOr<JobRecord> DeserializeJobSpec(std::string_view bytes) {
  MDC_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(bytes, SnapshotKind::kServiceJob,
                           kJobPayloadVersion));
  JobRecord record;
  MDC_ASSIGN_OR_RETURN(record.seq, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(record.spec.id, reader.ReadString());
  MDC_ASSIGN_OR_RETURN(record.spec.tenant, reader.ReadString());
  MDC_ASSIGN_OR_RETURN(record.spec.kind, reader.ReadString());
  MDC_ASSIGN_OR_RETURN(record.spec.cost, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(record.spec.deadline_ms, reader.ReadI64());
  MDC_ASSIGN_OR_RETURN(record.spec.max_steps, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(uint64_t param_count, reader.ReadU64());
  if (param_count > reader.remaining() / (2 * sizeof(uint64_t))) {
    return Status::InvalidArgument("job record: param count exceeds data");
  }
  for (uint64_t i = 0; i < param_count; ++i) {
    MDC_ASSIGN_OR_RETURN(std::string key, reader.ReadString());
    MDC_ASSIGN_OR_RETURN(std::string value, reader.ReadString());
    record.spec.params[std::move(key)] = std::move(value);
  }
  MDC_RETURN_IF_ERROR(reader.ExpectEnd());
  if (!IsValidToken(record.spec.id) || !IsValidToken(record.spec.tenant) ||
      !IsKnownKind(record.spec.kind) || record.spec.cost == 0) {
    return Status::InvalidArgument("job record: invalid field values");
  }
  return record;
}

std::string SerializeOutcome(const JobOutcome& outcome) {
  SnapshotWriter writer(SnapshotKind::kServiceOutcome,
                        kOutcomePayloadVersion);
  writer.WriteString(outcome.id);
  writer.WriteU32(static_cast<uint32_t>(outcome.state));
  writer.WriteU32(outcome.attempts);
  writer.WriteString(outcome.message);
  return writer.Finish();
}

StatusOr<JobOutcome> DeserializeOutcome(std::string_view bytes) {
  MDC_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(bytes, SnapshotKind::kServiceOutcome,
                           kOutcomePayloadVersion));
  JobOutcome outcome;
  MDC_ASSIGN_OR_RETURN(outcome.id, reader.ReadString());
  MDC_ASSIGN_OR_RETURN(uint32_t state, reader.ReadU32());
  if (state > static_cast<uint32_t>(JobState::kExhausted)) {
    return Status::InvalidArgument("outcome record: unknown job state");
  }
  outcome.state = static_cast<JobState>(state);
  MDC_ASSIGN_OR_RETURN(outcome.attempts, reader.ReadU32());
  MDC_ASSIGN_OR_RETURN(outcome.message, reader.ReadString());
  MDC_RETURN_IF_ERROR(reader.ExpectEnd());
  return outcome;
}

}  // namespace mdc::service
