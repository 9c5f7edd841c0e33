#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "common/json.h"

namespace corropt::obs {

void Histogram::record(double v) const {
  if (entry_ == nullptr) return;
  const std::vector<double>& bounds = entry_->bounds;
  const std::size_t bucket = static_cast<std::size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
  entry_->counts[bucket].fetch_add(1, std::memory_order_relaxed);
  entry_->value.fetch_add(v, std::memory_order_relaxed);
}

detail::Entry& MetricsRegistry::create(std::string_view name,
                                       detail::Kind kind,
                                       std::vector<double> bounds,
                                       bool is_timer) {
  detail::Entry& entry = entries_.emplace_back();
  entry.name = std::string(name);
  entry.kind = kind;
  entry.is_timer = is_timer;
  entry.bounds = std::move(bounds);
  entry.counts =
      std::vector<std::atomic<std::uint64_t>>(entry.bounds.size() + 1);
  index_.emplace(entry.name, &entry);
  return entry;
}

detail::Entry& MetricsRegistry::registered(std::string_view name,
                                           detail::Kind kind,
                                           std::vector<double> bounds,
                                           bool is_timer) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(std::string(name));
  if (it == index_.end()) {
    return create(name, kind, std::move(bounds), is_timer);
  }
  if (it->second->kind != kind) {
    throw std::logic_error("obs metric '" + std::string(name) +
                           "' already registered with a different kind");
  }
  return *it->second;
}

Counter MetricsRegistry::counter(std::string_view name) {
  return Counter(&registered(name, detail::Kind::kCounter));
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  return Gauge(&registered(name, detail::Kind::kGauge));
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<double> bounds) {
  if (!std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::logic_error("obs histogram '" + std::string(name) +
                           "': bounds must be ascending");
  }
  return Histogram(
      &registered(name, detail::Kind::kHistogram, std::move(bounds)));
}

Histogram MetricsRegistry::timer(std::string_view name) {
  // 1 µs .. 10 s in 1-3-10 steps: wide enough for both a fast-checker
  // decision (~µs) and a cold large-DCN optimizer run (~ms-s).
  static const std::vector<double> kLatencyBounds = {
      1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
      1e-2, 3e-2, 1e-1, 3e-1, 1.0,  3.0,  10.0};
  return Histogram(&registered(name, detail::Kind::kHistogram, kLatencyBounds,
                               /*is_timer=*/true));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const detail::Entry& entry : entries_) {
    const double value = entry.value.load(std::memory_order_relaxed);
    switch (entry.kind) {
      case detail::Kind::kCounter:
        snap.counters.push_back(
            {entry.name, entry.counts[0].load(std::memory_order_relaxed)});
        break;
      case detail::Kind::kGauge:
        snap.gauges.push_back({entry.name, value});
        break;
      case detail::Kind::kHistogram: {
        MetricsSnapshot::HistogramValue h{entry.name, entry.bounds, {}, 0,
                                          value};
        for (const std::atomic<std::uint64_t>& count : entry.counts) {
          h.counts.push_back(count.load(std::memory_order_relaxed));
          h.count += h.counts.back();
        }
        (entry.is_timer ? snap.timers : snap.histograms)
            .push_back(std::move(h));
        break;
      }
    }
  }
  return snap;
}

void MetricsRegistry::restore(const MetricsSnapshot& snap) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_set<std::string_view> named;
  // The entry `name` restores into: the registered one, which must be
  // of `kind` (and, for a histogram, have `bounds`), or a new one when
  // the value is nonzero; nullptr for a zero value nothing registered.
  const auto target = [&](const std::string& name, detail::Kind kind,
                          bool nonzero,
                          const std::vector<double>& bounds) -> detail::Entry* {
    named.insert(name);
    const auto it = index_.find(name);
    if (it == index_.end()) {
      return nonzero ? &create(name, kind, bounds, /*is_timer=*/false)
                     : nullptr;
    }
    if (it->second->kind != kind) {
      throw std::runtime_error("obs metric '" + name +
                               "' restored with a different kind");
    }
    if (it->second->bounds != bounds) {
      throw std::runtime_error("obs histogram '" + name +
                               "': restore with different bounds");
    }
    return it->second;
  };

  for (const MetricsSnapshot::CounterValue& c : snap.counters) {
    if (detail::Entry* entry =
            target(c.name, detail::Kind::kCounter, c.value != 0, {})) {
      entry->counts[0].store(c.value, std::memory_order_relaxed);
    }
  }
  for (const MetricsSnapshot::GaugeValue& g : snap.gauges) {
    if (detail::Entry* entry =
            target(g.name, detail::Kind::kGauge, g.value != 0.0, {})) {
      entry->value.store(g.value, std::memory_order_relaxed);
    }
  }
  for (const MetricsSnapshot::HistogramValue& h : snap.histograms) {
    if (detail::Entry* entry =
            target(h.name, detail::Kind::kHistogram, h.count != 0, h.bounds)) {
      for (std::size_t bucket = 0; bucket < entry->counts.size(); ++bucket) {
        entry->counts[bucket].store(h.counts[bucket],
                                    std::memory_order_relaxed);
      }
      entry->value.store(h.sum, std::memory_order_relaxed);
    }
  }

  // Zero what the snapshot does not name: it may come from a branch
  // point before this registry's later registrations, whose counts had
  // not happened yet.
  for (detail::Entry& entry : entries_) {
    if (entry.is_timer || named.contains(entry.name)) continue;
    for (std::atomic<std::uint64_t>& count : entry.counts) {
      count.store(0, std::memory_order_relaxed);
    }
    entry.value.store(0.0, std::memory_order_relaxed);
  }
}

namespace {

void write_histogram_section(
    common::JsonWriter& json, std::string_view key,
    const std::vector<MetricsSnapshot::HistogramValue>& values) {
  json.key(key).begin_object();
  for (const MetricsSnapshot::HistogramValue& h : values) {
    json.key(h.name).begin_object();
    json.member("count", h.count);
    json.member("sum", h.sum);
    json.member("bounds", h.bounds);
    std::vector<double> counts(h.counts.begin(), h.counts.end());
    json.member("counts", counts);
    json.end_object();
  }
  json.end_object();
}

}  // namespace

void MetricsSnapshot::write_json(common::JsonWriter& json,
                                 bool include_timers) const {
  json.key("counters").begin_object();
  for (const CounterValue& c : counters) json.member(c.name, c.value);
  json.end_object();
  json.key("gauges").begin_object();
  for (const GaugeValue& g : gauges) json.member(g.name, g.value);
  json.end_object();
  write_histogram_section(json, "histograms", histograms);
  if (include_timers) write_histogram_section(json, "timers", timers);
}

}  // namespace corropt::obs
