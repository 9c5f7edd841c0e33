// Observability: metrics registry for the CorrOpt control loop.
//
// The controller, optimizer, fast checker, telemetry pipeline and the
// mitigation simulation all accumulate operational counts (decisions
// taken, subsets evaluated, polls answered) and latencies. MetricsRegistry
// gives them one uniform, thread-safe place to put those numbers:
//
//   * Every metric is one entry of relaxed atomics: a counter is one
//     fetch_add, a gauge one store (last write wins, for values that are
//     set, not accumulated: current penalty rate, disabled links).
//   * Histograms have fixed bucket upper bounds chosen at registration;
//     recording is an upper_bound, one bucket increment and one add to
//     the sum.
//     Histograms registered via timer() hold wall-clock seconds fed by
//     obs::ScopedTimer and are segregated in snapshots: wall time is not
//     covered by the determinism contract (DESIGN.md §8), exactly like
//     the `wall_seconds` field of the bench JSON.
//
// Each registry is written by one simulation or control-loop thread in
// every shipped binary; writes from several threads are still exact
// (the measurement study's pool workers share one timer).
//
// Handles (Counter/Gauge/Histogram) are cheap value types resolved once
// by name; a default-constructed handle is inert and ignores writes, so
// instrumented code needs no null checks when observability is detached.
//
// Snapshots serialize through common::JsonWriter under the
// corropt-obs-metrics/1 schema (EXPERIMENTS.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace corropt::common {
class JsonWriter;
}

namespace corropt::obs {

namespace detail {

enum class Kind { kCounter, kGauge, kHistogram };

// One registered metric.
struct Entry {
  std::string name;
  Kind kind = Kind::kCounter;
  // True for timer() registrations: values are wall-clock seconds and the
  // snapshot segregates them from deterministic histograms.
  bool is_timer = false;
  // A histogram's ascending upper bounds; an implicit +inf bucket
  // follows the last.
  std::vector<double> bounds;
  // bounds.size() + 1 counts: a histogram's buckets, a counter's one
  // count (a gauge leaves it unused).
  std::vector<std::atomic<std::uint64_t>> counts;
  // A gauge's value or a histogram's sum.
  std::atomic<double> value{0.0};
};

}  // namespace detail

class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) const {
    if (entry_ == nullptr) return;
    entry_->counts[0].fetch_add(n, std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::Entry* entry) : entry_(entry) {}
  detail::Entry* entry_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;
  void set(double v) const {
    if (entry_ != nullptr) entry_->value.store(v, std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::Entry* entry) : entry_(entry) {}
  detail::Entry* entry_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  void record(double v) const;
  [[nodiscard]] explicit operator bool() const { return entry_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::Entry* entry) : entry_(entry) {}
  detail::Entry* entry_ = nullptr;
};

// Plain-data view of a registry at one instant.
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

  // The one field list of the deterministic sections (counters, gauges,
  // histograms; never timers): the checkpoint's OBSS section and
  // obs::digest. A histogram's `count` is the sum of its buckets.
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c) {
    c.seq(self.counters, [&c](auto& counter) {
      c.str(counter.name);
      c.u64(counter.value);
    });
    c.seq(self.gauges, [&c](auto& gauge) {
      c.str(gauge.name);
      c.f64(gauge.value);
    });
    c.seq(self.histograms, [&c](auto& h) {
      c.str(h.name);
      c.seq(h.bounds, [&c](auto& b) { c.f64(b); });
      if constexpr (Codec::kReading) h.counts.resize(h.bounds.size() + 1);
      for (auto& count : h.counts) c.u64(count);
      c.f64(h.sum);
      if constexpr (Codec::kReading) {
        h.count = std::accumulate(h.counts.begin(), h.counts.end(),
                                  std::uint64_t{0});
      }
    });
  }
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

  // Metrics appear in registration order, which is deterministic
  // whenever registration happens on one thread.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  // Checkpointing (DESIGN.md §14): overwrites current values from a
  // previously captured snapshot. Existing entries are set exactly;
  // entries in `snap` that were never registered here are created only
  // when they carry a nonzero value, so a same-config branch keeps a
  // registration order (and therefore snapshot order) identical to a
  // fresh run, while a cross-backend counterfactual still carries over
  // the prefix's counts.
  // Entries registered here but absent from `snap` are zeroed. Timers
  // are left untouched: wall time is outside the determinism contract.
  // An entry whose kind or histogram bounds differ from the one
  // registered under its name is malformed input: std::runtime_error.
  void restore(const MetricsSnapshot& snap);

 private:
  // Get-or-create under mu_; a kind clash throws std::logic_error.
  detail::Entry& registered(std::string_view name, detail::Kind kind,
                            std::vector<double> bounds = {},
                            bool is_timer = false);
  // Appends a new entry; mu_ is held.
  detail::Entry& create(std::string_view name, detail::Kind kind,
                        std::vector<double> bounds, bool is_timer);

  mutable std::mutex mu_;
  // Registration order; a deque keeps addresses stable for the handles.
  std::deque<detail::Entry> entries_;
  std::unordered_map<std::string, detail::Entry*> index_;
};

}  // namespace corropt::obs
