#include "service/dataset_cache.h"

#include <sys/stat.h>

#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/metrics.h"
#include "hierarchy/spec_parser.h"

namespace mdc::service {
namespace {

// Prefixes a derived-model hit must replay (see the header comment): the
// deterministic counters only the dispatch worker charges. svc./net. are
// charged concurrently by the front-end and batch. never runs in-service,
// so including them would make the delta capture racy or wrong.
constexpr const char* kWorkPrefixes[] = {"search.", "run.", "cmp.",
                                         "perturb.", "perm."};

bool IsWorkCounter(const std::string& name) {
  for (const char* prefix : kWorkPrefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// FNV-1a, 64-bit. Content identity only needs collision resistance against
// accident, not adversaries — a colliding dataset pair would serve one
// payload for the other, same blast radius as any content-addressed cache.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void HashBytes(uint64_t& hash, const std::string& bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= kFnvPrime;
  }
  // Field separator: distinguishes ("ab","c") from ("a","bc").
  hash ^= 0xff;
  hash *= kFnvPrime;
}

std::string RequestKey(const std::string& input_path,
                       const std::string& schema_spec,
                       const std::string& hierarchies_path) {
  std::string key = input_path;
  key.push_back('\0');
  key += schema_spec;
  key.push_back('\0');
  key += hierarchies_path;
  return key;
}

}  // namespace

std::string DatasetCacheStats::ToString() const {
  return "hits=" + std::to_string(hits) + " misses=" + std::to_string(misses) +
         " revalidations=" + std::to_string(revalidations) +
         " evictions=" + std::to_string(evictions) +
         " capacity=" + std::to_string(evicted_capacity) +
         " stale=" + std::to_string(evicted_stale) +
         " clear=" + std::to_string(evicted_clear) +
         " entries=" + std::to_string(entries) +
         " bytes=" + std::to_string(bytes);
}

StatusOr<LoadedInputs> LoadInputFiles(const std::string& input_path,
                                      const std::string& schema_spec,
                                      const std::string& hierarchies_path) {
  LoadedInputs loaded;
  MDC_ASSIGN_OR_RETURN(Schema schema, ParseSchemaSpec(schema_spec));
  MDC_ASSIGN_OR_RETURN(loaded.csv, ReadFileToString(input_path));
  MDC_ASSIGN_OR_RETURN(Dataset parsed, Dataset::FromCsv(schema, loaded.csv));
  loaded.data = std::make_shared<const Dataset>(std::move(parsed));
  if (!hierarchies_path.empty()) {
    MDC_ASSIGN_OR_RETURN(loaded.hierarchy_spec,
                         ReadFileToString(hierarchies_path));
    MDC_ASSIGN_OR_RETURN(
        loaded.hierarchies,
        ParseHierarchySpec(loaded.data->schema(), loaded.hierarchy_spec));
  }
  return loaded;
}

DatasetCache::DatasetCache(DatasetCacheConfig config) : config_(config) {}

DatasetCache::FileStamp DatasetCache::StampFor(const std::string& path) {
  FileStamp stamp;
  if (path.empty()) return stamp;  // "No file" stamps equal forever.
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return stamp;
  stamp.present = true;
  stamp.size = static_cast<int64_t>(st.st_size);
  stamp.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                   static_cast<int64_t>(st.st_mtim.tv_nsec);
  return stamp;
}

StatusOr<DatasetCache::Resolved> DatasetCache::Resolve(
    const std::string& input_path, const std::string& schema_spec,
    const std::string& hierarchies_path) {
  const std::string key = RequestKey(input_path, schema_spec, hierarchies_path);
  // Stamps are taken BEFORE any read: if a writer lands between the stat
  // and the read we record the old stamp against the new bytes, and the
  // next resolve revalidates — stale-data-kept is the failure mode this
  // ordering rules out.
  const FileStamp input_stamp = StampFor(input_path);
  const FileStamp hier_stamp = StampFor(hierarchies_path);

  bool known_request = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto req = requests_.find(key);
    if (req != requests_.end()) {
      known_request = true;
      if (req->second.input == input_stamp &&
          req->second.hierarchies == hier_stamp) {
        auto entry = entries_.find(req->second.content_hash);
        if (entry != entries_.end()) {
          MDC_METRIC_INC("svc.cache.hits");
          ++stats_.hits;
          TouchLocked(entry->second);
          return Resolved{req->second.content_hash, entry->second.data,
                          entry->second.hierarchies};
        }
      }
    }
  }

  // Slow path: full load, outside the lock so stats/clear pulls never wait
  // on file I/O or parsing.
  MDC_ASSIGN_OR_RETURN(
      LoadedInputs loaded,
      LoadInputFiles(input_path, schema_spec, hierarchies_path));
  uint64_t hash = kFnvOffset;
  HashBytes(hash, schema_spec);
  HashBytes(hash, loaded.csv);
  HashBytes(hash, loaded.hierarchy_spec);

  std::lock_guard<std::mutex> lock(mu_);
  if (known_request) {
    // The stamps moved (or the entry was evicted) — this load was a
    // content recheck, which is what `revalidations` counts.
    MDC_METRIC_INC("svc.cache.revalidations");
    ++stats_.revalidations;
  }
  auto& request = requests_[key];
  const uint64_t old_hash = known_request ? request.content_hash : 0;
  request.input = input_stamp;
  request.hierarchies = hier_stamp;
  request.content_hash = hash;

  auto entry = entries_.find(hash);
  if (entry != entries_.end()) {
    // Same content (revalidated touch, or a second path to the same
    // bytes): the freshly parsed copy is discarded for the resident one.
    if (known_request) {
      MDC_METRIC_INC("svc.cache.hits");
      ++stats_.hits;
    } else {
      MDC_METRIC_INC("svc.cache.misses");
      ++stats_.misses;
    }
    TouchLocked(entry->second);
    return Resolved{hash, entry->second.data, entry->second.hierarchies};
  }

  MDC_METRIC_INC("svc.cache.misses");
  ++stats_.misses;
  if (known_request && old_hash != hash) {
    // The content behind this request changed. Drop the old entry unless
    // another request still resolves to it.
    bool referenced = false;
    for (const auto& [other_key, other] : requests_) {
      if (other_key != key && other.content_hash == old_hash) {
        referenced = true;
        break;
      }
    }
    if (!referenced && entries_.count(old_hash) > 0) {
      EvictLocked(old_hash, EvictReason::kStale);
    }
  }

  Entry fresh;
  fresh.data = loaded.data;
  fresh.hierarchies = loaded.hierarchies;
  fresh.base_bytes = loaded.csv.size() + loaded.hierarchy_spec.size();
  fresh.bytes = fresh.base_bytes;
  total_bytes_ += fresh.bytes;
  auto [it, inserted] = entries_.emplace(hash, std::move(fresh));
  TouchLocked(it->second);
  EnforceBudgetLocked(hash);
  PublishGaugesLocked();
  return Resolved{hash, std::move(loaded.data),
                  std::move(loaded.hierarchies)};
}

StatusOr<std::shared_ptr<const EncodedBundle>> DatasetCache::Encoded(
    const Resolved& resolved) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto entry = entries_.find(resolved.content_hash);
    if (entry != entries_.end() && entry->second.encoded != nullptr) {
      TouchLocked(entry->second);
      return entry->second.encoded;
    }
  }
  // Build outside the lock (the expensive part). The single dispatch
  // worker is the only caller, so there is no duplicated-build race to
  // guard against — and a duplicate would only waste work, not corrupt.
  MDC_ASSIGN_OR_RETURN(
      std::shared_ptr<const EncodedBundle> bundle,
      BuildEncodedBundle(*resolved.data, resolved.hierarchies));
  std::lock_guard<std::mutex> lock(mu_);
  auto entry = entries_.find(resolved.content_hash);
  if (entry != entries_.end() && entry->second.encoded == nullptr) {
    entry->second.encoded = bundle;
    entry->second.bytes += bundle->Bytes();
    total_bytes_ += bundle->Bytes();
    TouchLocked(entry->second);
    EnforceBudgetLocked(resolved.content_hash);
    PublishGaugesLocked();
  }
  return bundle;
}

std::optional<CachedModel> DatasetCache::FindModel(uint64_t content_hash,
                                                   const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto entry = entries_.find(content_hash);
  if (entry == entries_.end()) return std::nullopt;
  auto model = entry->second.models.find(key);
  if (model == entry->second.models.end()) return std::nullopt;
  MDC_METRIC_INC("svc.cache.model_hits");
  TouchLocked(entry->second);
  // Replay the deterministic counters the skipped build would have
  // charged — this is what keeps counters.txt byte-identical between a
  // cache-on and a cache-off run of the same script.
  metrics::MergeCounters(model->second.counters);
  return model->second.model;
}

void DatasetCache::PutModel(uint64_t content_hash, const std::string& key,
                            const CachedModel& model,
                            const std::map<std::string, uint64_t>& counter_delta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto entry = entries_.find(content_hash);
  if (entry == entries_.end()) return;  // Evicted since Resolve; skip.
  if (entry->second.models.count(key) > 0) return;
  MDC_METRIC_INC("svc.cache.model_puts");
  StoredModel stored;
  stored.model = model;
  stored.counters = counter_delta;
  stored.bytes = key.size() + sizeof(StoredModel) +
                 model.matrix->rows() * model.matrix->cols() * sizeof(double);
  for (const auto& [name, value] : counter_delta) {
    stored.bytes += name.size() + sizeof(value);
  }
  entry->second.bytes += stored.bytes;
  total_bytes_ += stored.bytes;
  entry->second.models.emplace(key, std::move(stored));
  TouchLocked(entry->second);
  EnforceBudgetLocked(content_hash);
  PublishGaugesLocked();
}

uint64_t DatasetCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t evicted = 0;
  while (!entries_.empty()) {
    EvictLocked(entries_.begin()->first, EvictReason::kClear);
    ++evicted;
  }
  requests_.clear();
  PublishGaugesLocked();
  return evicted;
}

DatasetCacheStats DatasetCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DatasetCacheStats out = stats_;
  out.entries = entries_.size();
  out.bytes = total_bytes_;
  return out;
}

std::map<std::string, uint64_t> DatasetCache::WorkCounterSnapshot() {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : metrics::Snapshot().counters) {
    if (IsWorkCounter(name)) out[name] = value;
  }
  return out;
}

std::map<std::string, uint64_t> DatasetCache::WorkCounterDelta(
    const std::map<std::string, uint64_t>& before) {
  std::map<std::string, uint64_t> delta;
  for (const auto& [name, value] : metrics::Snapshot().counters) {
    if (!IsWorkCounter(name)) continue;
    auto it = before.find(name);
    const uint64_t prior = it == before.end() ? 0 : it->second;
    if (value > prior) delta[name] = value - prior;
  }
  return delta;
}

void DatasetCache::EvictLocked(uint64_t hash, EvictReason reason) {
  auto entry = entries_.find(hash);
  if (entry == entries_.end()) return;
  total_bytes_ -= entry->second.bytes;
  entries_.erase(entry);
  // Requests pointing at the evicted content re-resolve as misses.
  for (auto it = requests_.begin(); it != requests_.end();) {
    if (it->second.content_hash == hash) {
      it = requests_.erase(it);
    } else {
      ++it;
    }
  }
  MDC_METRIC_INC("svc.cache.evictions");
  ++stats_.evictions;
  switch (reason) {
    case EvictReason::kCapacity:
      MDC_METRIC_INC("svc.cache.evictions.capacity");
      ++stats_.evicted_capacity;
      break;
    case EvictReason::kStale:
      MDC_METRIC_INC("svc.cache.evictions.stale");
      ++stats_.evicted_stale;
      break;
    case EvictReason::kClear:
      MDC_METRIC_INC("svc.cache.evictions.clear");
      ++stats_.evicted_clear;
      break;
  }
}

void DatasetCache::EnforceBudgetLocked(uint64_t keep_hash) {
  if (config_.max_bytes == 0) return;
  while (total_bytes_ > config_.max_bytes && entries_.size() > 1) {
    uint64_t victim = 0;
    uint64_t oldest = 0;
    bool found = false;
    for (const auto& [hash, entry] : entries_) {
      if (hash == keep_hash) continue;  // Never evict the active entry.
      if (!found || entry.last_use < oldest) {
        victim = hash;
        oldest = entry.last_use;
        found = true;
      }
    }
    if (!found) return;
    EvictLocked(victim, EvictReason::kCapacity);
  }
}

void DatasetCache::TouchLocked(Entry& entry) { entry.last_use = ++use_tick_; }

void DatasetCache::PublishGaugesLocked() {
  metrics::GetGauge("svc.cache.bytes").Set(static_cast<int64_t>(total_bytes_));
  metrics::GetGauge("svc.cache.entries")
      .Set(static_cast<int64_t>(entries_.size()));
}

}  // namespace mdc::service
