// Unified metrics layer: a registry of named counters, gauges, and
// Histogram-backed latency timers shared by every component in the stack.
//
// Names are hierarchical, dot-separated, and stable — they are the public
// observability interface documented in docs/METRICS.md (e.g.
// "lsvd.write.ack_us", "backend.gc.bytes_moved", "cluster.disk[0].busy_us").
//
// Ownership model: each top-level object (LsvdDisk, BcacheDevice, RbdDisk,
// bench::World, ...) owns one MetricsRegistry and hands a pointer plus a name
// prefix to its components. Components constructed standalone (tests, the
// recovery probe inside WriteCache::Recover) pass nullptr and get a private
// registry, so no call site is forced to care about metrics.
//
// Snapshots are cheap value copies; DiffSince() subtracts a baseline snapshot
// (per bucket for histograms) so steady-state intervals can be measured after
// a warm-up phase. ToJson()/ToTable() render a snapshot for machines/humans.
#ifndef SRC_UTIL_METRICS_H_
#define SRC_UTIL_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/util/histogram.h"

namespace lsvd {

// Monotonically increasing event/byte counter.
class Counter {
 public:
  void Inc(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Instantaneous value, set by its owner (for values with no natural setter
// prefer MetricsRegistry::RegisterCallback, which samples at snapshot time).
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Point-in-time copy of a registry's contents. Plain data: safe to keep after
// the registry (and the components feeding it) are destroyed.
struct MetricsSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    Kind kind = Kind::kCounter;
    // Counter value (as integer) or gauge value.
    double value = 0.0;
    // Histogram state. With sub_bits 0 (the default), buckets[i] covers
    // [2^i, 2^(i+1)) and bucket 0 is [0, 2); with sub_bits k > 0 the
    // histogram uses log-linear geometry (see HistogramBucketLower).
    uint64_t count = 0;
    uint64_t weight = 0;
    int sub_bits = 0;
    double value_sum = 0.0;
    std::vector<std::pair<uint64_t, uint64_t>> buckets;  // (count, weight)

    // Histogram percentile by sample count, interpolated within the bucket
    // (mirrors Histogram::Percentile). Returns 0 for empty/non-histograms.
    double Percentile(double fraction) const;
    double Mean() const;
  };

  std::map<std::string, Entry> entries;

  // Null if the name is not present.
  const Entry* Find(const std::string& name) const;
  // Counter value for `name`, or 0 if absent / not a counter.
  uint64_t CounterValue(const std::string& name) const;
  // Percentile of the named histogram, or 0 if absent.
  double Percentile(const std::string& name, double fraction) const;

  // Returns (*this - baseline): counters and histogram buckets subtract;
  // gauges keep this snapshot's value. Entries absent from the baseline pass
  // through unchanged.
  MetricsSnapshot DiffSince(const MetricsSnapshot& baseline) const;

  // Single-line JSON object. Counters are integers, gauges doubles;
  // histograms expand to {"count", "mean", "p50", "p99", "buckets": [[lower,
  // count, weight], ...]}. Never emits NaN/Inf (invalid JSON).
  std::string ToJson() const;
  // Aligned human-readable listing (one metric per row; histograms show
  // count/mean/p50/p99).
  std::string ToTable() const;
};

// Registry of named metrics. Get-or-create: the same name always returns the
// same object, and pointers remain valid for the registry's lifetime, so
// components resolve their metrics once at construction and increment through
// raw pointers on the hot path.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create by name. A name registered as one kind must not be
  // requested as another: the process aborts naming the metric, in every
  // build type. A gauge and a callback may share a name (see
  // UnregisterCallback).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  // `sub_bits` selects the histogram's bucket geometry on first creation
  // (see histogram.h); later lookups return the existing histogram no matter
  // what they pass, so a bench wanting fine p99.9 resolution pre-creates the
  // name with sub_bits > 0 before the component resolves it.
  Histogram* GetHistogram(const std::string& name, int sub_bits = 0);

  // Registers a gauge whose value is computed by `fn` at snapshot time —
  // the idiomatic way to expose existing state (utilization, queue depths,
  // sim::DiskStats) without mirroring writes. Re-registering a name replaces
  // the callback; `fn` must stay valid for the registry's lifetime or until
  // replaced/unregistered. Components whose lifetime is shorter than the
  // registry's (per-volume components on a shared host registry) must
  // register through a CallbackGuard instead of calling this directly.
  void RegisterCallback(const std::string& name, std::function<double()> fn);
  // Drops the callback for `name`, freezing its last sampled value into a
  // plain gauge so the metric stays visible in post-detach dumps. No-op for
  // unknown names or non-callback slots.
  void UnregisterCallback(const std::string& name);

  MetricsSnapshot Snapshot() const;
  std::string ToJson() const { return Snapshot().ToJson(); }
  std::string ToTable() const { return Snapshot().ToTable(); }

  size_t size() const { return slots_.size(); }

 private:
  struct Slot {
    MetricsSnapshot::Kind kind = MetricsSnapshot::Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;  // if set, overrides gauge->value()
  };
  // std::map: deterministic export order, stable addresses for owned objects.
  std::map<std::string, Slot> slots_;
};

// RAII holder for snapshot-time gauge callbacks. A component that can be
// destroyed while its registry lives on (any per-volume component on a
// multi-tenant host's shared registry) registers through a guard member so
// destruction unregisters the callbacks — a dangling `this` capture would
// crash the next snapshot. Declare the guard AFTER the registry pointer and
// the state the callbacks read, so it is destroyed first.
class CallbackGuard {
 public:
  CallbackGuard() = default;
  CallbackGuard(const CallbackGuard&) = delete;
  CallbackGuard& operator=(const CallbackGuard&) = delete;
  ~CallbackGuard() { Release(); }

  void Register(MetricsRegistry* registry, const std::string& name,
                std::function<double()> fn) {
    registry->RegisterCallback(name, std::move(fn));
    registered_.emplace_back(registry, name);
  }

  // Unregisters everything now (callbacks freeze their last value).
  void Release() {
    for (const auto& [registry, name] : registered_) {
      registry->UnregisterCallback(name);
    }
    registered_.clear();
  }

 private:
  std::vector<std::pair<MetricsRegistry*, std::string>> registered_;
};

// Records an elapsed simulated duration (nanoseconds) into a latency
// histogram in microseconds. Null histogram or negative interval is a no-op,
// so call sites don't need metric-enabled/disabled branches.
inline void RecordLatencyUs(Histogram* h, int64_t nanos) {
  if (h == nullptr || nanos < 0) {
    return;
  }
  h->Add(static_cast<uint64_t>(nanos) / 1000);
}

}  // namespace lsvd

#endif  // SRC_UTIL_METRICS_H_
