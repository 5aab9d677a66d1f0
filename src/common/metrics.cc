#include "common/metrics.h"

#include <bit>
#include <cstdio>
#include <deque>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "common/durable_io.h"

namespace mdc::metrics {
namespace {

// Fixed per-shard cell budget. Counters take one cell; histograms take
// kHistogramBuckets + 1. The engine declares a few dozen instruments;
// 4096 leaves room for growth and keeps a shard at 32 KiB.
constexpr size_t kShardCells = 4096;

struct Shard {
  std::atomic<uint64_t> cells[kShardCells] = {};
};

enum class Kind { kCounter, kGauge, kHistogram };

struct Instrument {
  Kind kind;
  size_t index;  // Into the per-kind deque below.
};

}  // namespace

// Process-wide registry. Intentionally leaked: thread-local shard
// destructors may run during process teardown, after function-local
// statics would have been destroyed. Lives outside the anonymous
// namespace so the friend declarations in metrics.h apply.
class Registry {
 public:
  static Registry& Get() {
    static Registry* registry = new Registry();
    return *registry;
  }

  Counter& GetCounter(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = instruments_.find(std::string(name));
    if (it != instruments_.end()) {
      MDC_CHECK_MSG(it->second.kind == Kind::kCounter,
                    "metric name reused across kinds");
      return counters_[it->second.index];
    }
    MDC_CHECK_MSG(next_cell_ + 1 <= kShardCells, "metric cell budget exhausted");
    counters_.push_back(Counter(next_cell_++));
    instruments_[std::string(name)] = {Kind::kCounter, counters_.size() - 1};
    counter_names_.push_back(std::string(name));
    return counters_.back();
  }

  Gauge& GetGauge(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = instruments_.find(std::string(name));
    if (it != instruments_.end()) {
      MDC_CHECK_MSG(it->second.kind == Kind::kGauge,
                    "metric name reused across kinds");
      return gauges_[it->second.index];
    }
    gauges_.emplace_back();
    instruments_[std::string(name)] = {Kind::kGauge, gauges_.size() - 1};
    gauge_names_.push_back(std::string(name));
    return gauges_.back();
  }

  Histogram& GetHistogram(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = instruments_.find(std::string(name));
    if (it != instruments_.end()) {
      MDC_CHECK_MSG(it->second.kind == Kind::kHistogram,
                    "metric name reused across kinds");
      return histograms_[it->second.index];
    }
    MDC_CHECK_MSG(next_cell_ + kHistogramBuckets + 1 <= kShardCells,
                  "metric cell budget exhausted");
    histograms_.push_back(Histogram(next_cell_));
    next_cell_ += kHistogramBuckets + 1;
    instruments_[std::string(name)] = {Kind::kHistogram,
                                       histograms_.size() - 1};
    histogram_names_.push_back(std::string(name));
    return histograms_.back();
  }

  void RegisterShard(Shard* shard) {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(shard);
  }

  // Folds a dying thread's cells into the retired totals so its events
  // survive the thread.
  void RetireShard(Shard* shard) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < kShardCells; ++i) {
      retired_[i] += shard->cells[i].load(std::memory_order_relaxed);
    }
    for (auto it = shards_.begin(); it != shards_.end(); ++it) {
      if (*it == shard) {
        shards_.erase(it);
        break;
      }
    }
  }

  MetricsSnapshot Snapshot() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<uint64_t> cells(retired_, retired_ + kShardCells);
    for (Shard* shard : shards_) {
      for (size_t i = 0; i < kShardCells; ++i) {
        cells[i] += shard->cells[i].load(std::memory_order_relaxed);
      }
    }
    MetricsSnapshot snapshot;
    for (size_t i = 0; i < counters_.size(); ++i) {
      snapshot.counters[counter_names_[i]] = cells[counters_[i].slot_];
    }
    for (size_t i = 0; i < gauges_.size(); ++i) {
      snapshot.gauges[gauge_names_[i]] = gauges_[i].Value();
    }
    for (size_t i = 0; i < histograms_.size(); ++i) {
      HistogramSnapshot hist;
      const size_t base = histograms_[i].base_slot_;
      hist.buckets.assign(cells.begin() + base,
                          cells.begin() + base + kHistogramBuckets);
      for (uint64_t bucket : hist.buckets) hist.count += bucket;
      hist.sum = cells[base + kHistogramBuckets];
      snapshot.histograms[histogram_names_[i]] = std::move(hist);
    }
    return snapshot;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < kShardCells; ++i) retired_[i] = 0;
    for (Shard* shard : shards_) {
      for (size_t i = 0; i < kShardCells; ++i) {
        shard->cells[i].store(0, std::memory_order_relaxed);
      }
    }
    for (Gauge& gauge : gauges_) gauge.Set(0);
  }

 private:
  Registry() = default;

  std::mutex mu_;
  std::map<std::string, Instrument> instruments_;
  // Deques: stable addresses for the references GetCounter et al return.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  size_t next_cell_ = 0;
  std::vector<Shard*> shards_;
  uint64_t retired_[kShardCells] = {};
};

namespace {

// Thread-local shard, registered on first event and folded into the
// retired totals when the thread exits.
struct ShardHandle {
  Shard shard;
  ShardHandle() { Registry::Get().RegisterShard(&shard); }
  ~ShardHandle() { Registry::Get().RetireShard(&shard); }
};

Shard& LocalShard() {
  thread_local ShardHandle handle;
  return handle.shard;
}

void AppendJsonString(std::string& out, const std::string& value) {
  out += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

void Counter::Increment(uint64_t delta) {
  LocalShard().cells[slot_].fetch_add(delta, std::memory_order_relaxed);
}

size_t Histogram::BucketOf(uint64_t value) {
  size_t bucket = static_cast<size_t>(std::bit_width(value));
  return bucket < kHistogramBuckets ? bucket : kHistogramBuckets - 1;
}

void Histogram::Observe(uint64_t value) {
  Shard& shard = LocalShard();
  shard.cells[base_slot_ + BucketOf(value)].fetch_add(
      1, std::memory_order_relaxed);
  shard.cells[base_slot_ + kHistogramBuckets].fetch_add(
      value, std::memory_order_relaxed);
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": {\"count\": " + std::to_string(hist.count) +
           ", \"sum\": " + std::to_string(hist.sum) + ", \"buckets\": [";
    for (size_t i = 0; i < hist.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(hist.buckets[i]);
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string MetricsSnapshot::ToCompactJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(out, name);
    out.append(":").append(std::to_string(value));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(out, name);
    out.append(":").append(std::to_string(value));
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(out, name);
    out += ":{\"count\":" + std::to_string(hist.count) +
           ",\"sum\":" + std::to_string(hist.sum) + ",\"buckets\":[";
    for (size_t i = 0; i < hist.buckets.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(hist.buckets[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string MetricsSnapshot::DeterministicCountersText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    for (const char* prefix : kDeterministicPrefixes) {
      if (name.rfind(prefix, 0) == 0) {
        out += name + "=" + std::to_string(value) + "\n";
        break;
      }
    }
  }
  return out;
}

Counter& GetCounter(std::string_view name) {
  return Registry::Get().GetCounter(name);
}

Gauge& GetGauge(std::string_view name) {
  return Registry::Get().GetGauge(name);
}

Histogram& GetHistogram(std::string_view name) {
  return Registry::Get().GetHistogram(name);
}

MetricsSnapshot Snapshot() { return Registry::Get().Snapshot(); }

void MergeCounters(const std::map<std::string, uint64_t>& values) {
  for (const auto& [name, value] : values) {
    if (value > 0) GetCounter(name).Increment(value);
  }
}

void ResetForTest() { Registry::Get().Reset(); }

Status WriteSnapshotFile(const std::string& path) {
  return DurableWriteFile(path, Snapshot().ToJson());
}

}  // namespace mdc::metrics
