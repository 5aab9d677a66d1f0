// Resident dataset cache for the mdcd service (`--cache-bytes`,
// `--no-cache`, the `cache stats|clear` protocol verbs).
//
// The paper's workload is many-comparisons-over-one-dataset: §5 ranks many
// algorithm configurations against the same census microdata. Without a
// cache every service job re-reads its CSV, re-parses the schema and
// hierarchy spec, and re-dictionary-encodes the QI columns from scratch.
// DatasetCache makes that work resident across jobs, keyed by *content*:
//
//   requests:  (input path, schema spec, hierarchies path)
//                 -> (file stamps, content hash)          [staleness layer]
//   entries:   content hash -> { Dataset, HierarchySet,
//                                lazy EncodedBundle,
//                                derived permutation models }   [LRU layer]
//
// A request whose files still carry their recorded (size, mtime) resolves
// without touching file contents (svc.cache.hits). A stamp mismatch
// triggers revalidation (svc.cache.revalidations): the bytes are re-read
// and re-hashed; an unchanged hash is still a hit (the stamps are
// refreshed), a changed hash is a miss that evicts the stale entry
// (reason `stale`) and loads fresh bytes. Deleting a path behind a cached
// request surfaces the same Status a cold load would.
//
// The byte budget (`max_bytes`) covers the raw file bytes plus the
// encoded tables (EncodedView::CodeBytes + LevelCodec::TableBytes — the
// same accounting the RunContext memory hooks charge) plus derived model
// storage. Exceeding it evicts least-recently-used entries (reason
// `capacity`), never the entry being resolved: a single oversized dataset
// is served, not thrashed. `cache clear` evicts everything (reason
// `clear`).
//
// Correctness contract (proven by tests/service_cache_test):
//   - job artifacts are byte-identical with the cache on or off;
//   - so are the deterministic counters, excluding svc.cache.* itself.
// The first holds because the cache only shares immutable inputs (the
// Dataset, the EncodedBundle) that algorithms cannot tell apart from a
// fresh load. The second needs one extra mechanism: a derived-model hit
// (PutModel/FindModel) legitimately *skips* algorithm work that would
// have charged run./search./perturb./perm. counters, so PutModel stores
// the deterministic-counter delta captured while building the model and
// FindModel replays it through metrics::MergeCounters. svc./net./batch.
// prefixes are excluded from capture — other threads (the event loop)
// charge them concurrently, and the skipped work never touches them.
//
// Threading: the single dispatch worker is the only mutator; the
// front-end event loop reads stats and may clear. All map state is under
// one mutex, but file loads and hashing happen *outside* it, so a
// `metrics` or `cache stats` pull never waits on a load in progress.
// Everything handed out is shared_ptr-owned: eviction (or Clear) during
// an in-flight job never invalidates that job's data.

#ifndef MDC_SERVICE_DATASET_CACHE_H_
#define MDC_SERVICE_DATASET_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "anonymize/encoded_eval.h"
#include "common/status.h"
#include "core/property_matrix.h"
#include "hierarchy/scheme.h"
#include "table/dataset.h"

namespace mdc::service {

struct DatasetCacheConfig {
  // Total byte budget across all entries; 0 = unbounded (entries leave
  // only via staleness or `cache clear`).
  uint64_t max_bytes = 256ull << 20;
};

// One merged view of the counters plus the current gauges, rendered by
// ToString() as the `ok cache ...` protocol reply payload.
struct DatasetCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t revalidations = 0;
  uint64_t evictions = 0;          // Sum of the three typed reasons.
  uint64_t evicted_capacity = 0;
  uint64_t evicted_stale = 0;
  uint64_t evicted_clear = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;

  // "hits=.. misses=.. revalidations=.. evictions=.. capacity=.. stale=..
  //  clear=.. entries=.. bytes=.." — fixed order, parseable by tests.
  std::string ToString() const;
};

// A cached permutation model: the two Def.-1 property vectors packed as a
// 2-row PropertyMatrix (row 0 privacy, row 1 utility, names already
// release-qualified) plus the release row count.
struct CachedModel {
  size_t rows = 0;
  std::shared_ptr<const PropertyMatrix> matrix;
};

// A file-backed job's parsed inputs and the raw bytes they came from.
struct LoadedInputs {
  std::shared_ptr<const Dataset> data;
  HierarchySet hierarchies;
  std::string csv;             // The input file's bytes.
  std::string hierarchy_spec;  // The hierarchy file's bytes, or empty.
};

// The one load sequence of file-backed inputs, cached or not: the schema
// spec, the input CSV, then the hierarchy spec when `hierarchies_path` is
// set. Returns the first failing step's Status.
StatusOr<LoadedInputs> LoadInputFiles(const std::string& input_path,
                                      const std::string& schema_spec,
                                      const std::string& hierarchies_path);

class DatasetCache {
 public:
  // What a job gets back from Resolve: shared immutable inputs plus the
  // content hash that keys Encoded()/FindModel()/PutModel().
  struct Resolved {
    uint64_t content_hash = 0;
    std::shared_ptr<const Dataset> data;
    HierarchySet hierarchies;
  };

  explicit DatasetCache(DatasetCacheConfig config);

  DatasetCache(const DatasetCache&) = delete;
  DatasetCache& operator=(const DatasetCache&) = delete;

  // Loads (or revalidates) the file-backed dataset request through
  // LoadInputFiles. `hierarchies_path` may be empty (mondrian/cluster/
  // perturb jobs).
  StatusOr<Resolved> Resolve(const std::string& input_path,
                             const std::string& schema_spec,
                             const std::string& hierarchies_path);

  // The entry's dictionary-encode bundle, built on first use and resident
  // after. Build failures are returned (callers fall back to a fresh
  // build so the failing Status surfaces exactly where it always did).
  StatusOr<std::shared_ptr<const EncodedBundle>> Encoded(
      const Resolved& resolved);

  // Derived permutation-model store. FindModel replays the stored
  // deterministic-counter delta on hit (see file comment). PutModel is a
  // no-op if the entry was evicted since Resolve.
  std::optional<CachedModel> FindModel(uint64_t content_hash,
                                       const std::string& key);
  void PutModel(uint64_t content_hash, const std::string& key,
                const CachedModel& model,
                const std::map<std::string, uint64_t>& counter_delta);

  // Evicts everything (reason `clear`); returns the evicted entry count.
  uint64_t Clear();

  DatasetCacheStats GetStats() const;

  // Snapshot/delta of the counter prefixes a derived-model hit skips
  // (search., run., cmp., perturb., perm. — deterministic prefixes that
  // only the dispatch worker charges). PutModel callers bracket the model
  // build with these.
  static std::map<std::string, uint64_t> WorkCounterSnapshot();
  static std::map<std::string, uint64_t> WorkCounterDelta(
      const std::map<std::string, uint64_t>& before);

 private:
  struct FileStamp {
    bool present = false;  // stat() succeeded.
    int64_t size = 0;
    int64_t mtime_ns = 0;
    bool operator==(const FileStamp&) const = default;
  };
  struct RequestState {
    FileStamp input;
    FileStamp hierarchies;
    uint64_t content_hash = 0;
  };
  struct StoredModel {
    CachedModel model;
    std::map<std::string, uint64_t> counters;
    uint64_t bytes = 0;
  };
  struct Entry {
    std::shared_ptr<const Dataset> data;
    HierarchySet hierarchies;
    std::shared_ptr<const EncodedBundle> encoded;  // Null until first use.
    std::map<std::string, StoredModel> models;
    uint64_t base_bytes = 0;   // Raw input + hierarchy-spec bytes.
    uint64_t bytes = 0;        // base + encoded + models.
    uint64_t last_use = 0;     // LRU tick.
  };
  enum class EvictReason { kCapacity, kStale, kClear };

  static FileStamp StampFor(const std::string& path);

  // All four require mu_ held.
  void EvictLocked(uint64_t hash, EvictReason reason);
  void EnforceBudgetLocked(uint64_t keep_hash);
  void TouchLocked(Entry& entry);
  void PublishGaugesLocked();

  const DatasetCacheConfig config_;

  mutable std::mutex mu_;
  std::map<std::string, RequestState> requests_;  // request key -> stamps.
  std::map<uint64_t, Entry> entries_;             // content hash -> entry.
  uint64_t total_bytes_ = 0;
  uint64_t use_tick_ = 0;
  DatasetCacheStats stats_;  // entries/bytes maintained alongside.
};

}  // namespace mdc::service

#endif  // MDC_SERVICE_DATASET_CACHE_H_
