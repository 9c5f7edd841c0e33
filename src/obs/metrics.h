// Observability: metrics registry for the CorrOpt control loop.
//
// The controller, optimizer, fast checker, telemetry pipeline and the
// mitigation simulation all accumulate operational counts (decisions
// taken, subsets evaluated, polls answered) and latencies. MetricsRegistry
// gives them one uniform, thread-safe place to put those numbers:
//
//   * Counters and histograms write through per-thread shards of relaxed
//     atomics (cache-line padded), so a hot-path increment is one
//     uncontended fetch_add; shards are folded only on snapshot.
//   * Gauges are single relaxed atomics (last write wins) for values that
//     are set, not accumulated (current penalty rate, disabled links).
//   * Histograms have fixed bucket upper bounds chosen at registration;
//     recording is a branchless-ish upper_bound plus one shard increment.
//     Histograms registered via timer() hold wall-clock seconds fed by
//     obs::ScopedTimer and are segregated in snapshots: wall time is not
//     covered by the determinism contract (DESIGN.md §8), exactly like
//     the `wall_seconds` field of the bench JSON.
//
// Handles (Counter/Gauge/Histogram) are cheap value types resolved once
// by name; a default-constructed handle is inert and ignores writes, so
// instrumented code needs no null checks when observability is detached.
//
// Snapshots serialize through common::JsonWriter under the
// corropt-obs-metrics/1 schema (EXPERIMENTS.md).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace corropt::common {
class JsonWriter;
}

namespace corropt::obs {

// Number of write shards. A power of two a bit above the core counts we
// target keeps collisions (two threads sharing a shard) rare without
// bloating fold cost.
inline constexpr std::size_t kMetricShards = 16;

namespace detail {

// Stable, small per-thread shard slot. Threads are assigned slots
// round-robin on first use; values are exact regardless of which shard
// a write lands in.
[[nodiscard]] std::size_t thread_shard();

struct alignas(64) ShardCell {
  std::atomic<std::uint64_t> value{0};
};

struct CounterEntry {
  std::string name;
  std::array<ShardCell, kMetricShards> cells;
};

struct GaugeEntry {
  std::string name;
  std::atomic<double> value{0.0};
};

struct HistogramEntry {
  std::string name;
  // True for timer() registrations: values are wall-clock seconds and the
  // snapshot segregates them from deterministic histograms.
  bool is_timer = false;
  // Ascending upper bounds; an implicit +inf bucket follows the last.
  std::vector<double> bounds;
  // kMetricShards * (bounds.size() + 1) cells, shard-major.
  std::vector<ShardCell> counts;
  std::array<std::atomic<double>, kMetricShards> sums{};
};

// Relaxed add for atomic<double> (no fetch_add for floating point).
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed,
                                  std::memory_order_relaxed)) {
  }
}

}  // namespace detail

class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) const {
    if (entry_ == nullptr) return;
    entry_->cells[detail::thread_shard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterEntry* entry) : entry_(entry) {}
  detail::CounterEntry* entry_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;
  void set(double v) const {
    if (entry_ != nullptr) entry_->value.store(v, std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeEntry* entry) : entry_(entry) {}
  detail::GaugeEntry* entry_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  void record(double v) const;
  [[nodiscard]] explicit operator bool() const { return entry_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramEntry* entry) : entry_(entry) {}
  detail::HistogramEntry* entry_ = nullptr;
};

// Folded, plain-data view of a registry at one instant.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    // bounds.size() + 1 entries; the last is the +inf overflow bucket.
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
  // timer() registrations: wall-clock latencies, excluded from the
  // determinism contract.
  std::vector<HistogramValue> timers;

  // Writes the snapshot body (counters/gauges/histograms[/timers]
  // members) into an already-open JSON object. Timers are skippable so
  // regression tooling can compare fully deterministic documents.
  void write_json(common::JsonWriter& json, bool include_timers = true) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create by name. Re-registering a name returns the existing
  // metric; registering it as a different kind throws std::logic_error.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  // `bounds` are ascending bucket upper bounds; a +inf bucket is
  // implicit. Re-registration ignores the new bounds.
  [[nodiscard]] Histogram histogram(std::string_view name,
                                    std::vector<double> bounds);
  // Latency histogram in seconds (default bounds 1 µs .. 10 s, decade
  // steps with 1-3 subdivisions), fed by obs::ScopedTimer, reported in
  // the snapshot's separate non-deterministic "timers" section.
  [[nodiscard]] Histogram timer(std::string_view name);

  // Folds all shards. Metrics appear in registration order, which is
  // deterministic whenever registration happens on one thread.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  // Checkpointing (DESIGN.md §14): overwrites current values from a
  // previously captured snapshot. Existing entries are set exactly (the
  // value folds into shard 0, other shards zeroed); entries in `snap`
  // that were never registered here are created only when they carry a
  // nonzero value, so a same-config branch keeps a registration order
  // (and therefore snapshot order) identical to a fresh run, while a
  // cross-backend counterfactual still carries over the prefix's counts.
  // Entries registered here but absent from `snap` are zeroed. Timers
  // are left untouched: wall time is outside the determinism contract.
  // An entry whose kind or histogram bounds differ from the one
  // registered under its name is malformed input: std::runtime_error.
  void restore(const MetricsSnapshot& snap);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  Histogram histogram_impl(std::string_view name, std::vector<double> bounds,
                           bool is_timer);

  mutable std::mutex mu_;
  // Deques: stable addresses for the handles.
  std::deque<detail::CounterEntry> counters_;
  std::deque<detail::GaugeEntry> gauges_;
  std::deque<detail::HistogramEntry> histograms_;
  std::unordered_map<std::string, std::pair<Kind, std::size_t>> index_;
};

}  // namespace corropt::obs
