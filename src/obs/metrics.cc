#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "common/json.h"

namespace corropt::obs {

namespace detail {

std::size_t thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return slot;
}

}  // namespace detail

void Histogram::record(double v) const {
  if (entry_ == nullptr) return;
  const std::vector<double>& bounds = entry_->bounds;
  const std::size_t bucket = static_cast<std::size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
  const std::size_t shard = detail::thread_shard();
  const std::size_t stride = bounds.size() + 1;
  entry_->counts[shard * stride + bucket].value.fetch_add(
      1, std::memory_order_relaxed);
  detail::atomic_add(entry_->sums[shard], v);
}

Counter MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(std::string(name));
  if (it != index_.end()) {
    if (it->second.first != Kind::kCounter) {
      throw std::logic_error("obs metric '" + std::string(name) +
                             "' already registered with a different kind");
    }
    return Counter(&counters_[it->second.second]);
  }
  counters_.emplace_back();
  counters_.back().name = std::string(name);
  index_.emplace(std::string(name),
                 std::make_pair(Kind::kCounter, counters_.size() - 1));
  return Counter(&counters_.back());
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(std::string(name));
  if (it != index_.end()) {
    if (it->second.first != Kind::kGauge) {
      throw std::logic_error("obs metric '" + std::string(name) +
                             "' already registered with a different kind");
    }
    return Gauge(&gauges_[it->second.second]);
  }
  gauges_.emplace_back();
  gauges_.back().name = std::string(name);
  index_.emplace(std::string(name),
                 std::make_pair(Kind::kGauge, gauges_.size() - 1));
  return Gauge(&gauges_.back());
}

Histogram MetricsRegistry::histogram_impl(std::string_view name,
                                          std::vector<double> bounds,
                                          bool is_timer) {
  if (!std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::logic_error("obs histogram '" + std::string(name) +
                           "': bounds must be ascending");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(std::string(name));
  if (it != index_.end()) {
    if (it->second.first != Kind::kHistogram) {
      throw std::logic_error("obs metric '" + std::string(name) +
                             "' already registered with a different kind");
    }
    return Histogram(&histograms_[it->second.second]);
  }
  histograms_.emplace_back();
  detail::HistogramEntry& entry = histograms_.back();
  entry.name = std::string(name);
  entry.is_timer = is_timer;
  entry.bounds = std::move(bounds);
  entry.counts =
      std::vector<detail::ShardCell>(kMetricShards * (entry.bounds.size() + 1));
  for (std::atomic<double>& sum : entry.sums) {
    sum.store(0.0, std::memory_order_relaxed);
  }
  index_.emplace(std::string(name),
                 std::make_pair(Kind::kHistogram, histograms_.size() - 1));
  return Histogram(&entry);
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<double> bounds) {
  return histogram_impl(name, std::move(bounds), /*is_timer=*/false);
}

Histogram MetricsRegistry::timer(std::string_view name) {
  // 1 µs .. 10 s in 1-3-10 steps: wide enough for both a fast-checker
  // decision (~µs) and a cold large-DCN optimizer run (~ms-s).
  static const std::vector<double> kLatencyBounds = {
      1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
      1e-2, 3e-2, 1e-1, 3e-1, 1.0,  3.0,  10.0};
  return histogram_impl(name, kLatencyBounds, /*is_timer=*/true);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const detail::CounterEntry& entry : counters_) {
    std::uint64_t total = 0;
    for (const detail::ShardCell& cell : entry.cells) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    snap.counters.push_back({entry.name, total});
  }
  snap.gauges.reserve(gauges_.size());
  for (const detail::GaugeEntry& entry : gauges_) {
    snap.gauges.push_back(
        {entry.name, entry.value.load(std::memory_order_relaxed)});
  }
  for (const detail::HistogramEntry& entry : histograms_) {
    MetricsSnapshot::HistogramValue value;
    value.name = entry.name;
    value.bounds = entry.bounds;
    const std::size_t stride = entry.bounds.size() + 1;
    value.counts.assign(stride, 0);
    for (std::size_t shard = 0; shard < kMetricShards; ++shard) {
      for (std::size_t bucket = 0; bucket < stride; ++bucket) {
        value.counts[bucket] +=
            entry.counts[shard * stride + bucket].value.load(
                std::memory_order_relaxed);
      }
      value.sum += entry.sums[shard].load(std::memory_order_relaxed);
    }
    for (const std::uint64_t c : value.counts) value.count += c;
    (entry.is_timer ? snap.timers : snap.histograms)
        .push_back(std::move(value));
  }
  return snap;
}

void MetricsRegistry::restore(const MetricsSnapshot& snap) {
  std::lock_guard<std::mutex> lock(mu_);

  const auto set_counter = [](detail::CounterEntry& entry, std::uint64_t v) {
    entry.cells[0].value.store(v, std::memory_order_relaxed);
    for (std::size_t s = 1; s < kMetricShards; ++s) {
      entry.cells[s].value.store(0, std::memory_order_relaxed);
    }
  };
  const auto set_histogram = [](detail::HistogramEntry& entry,
                                const MetricsSnapshot::HistogramValue& v) {
    if (entry.bounds != v.bounds) {
      throw std::runtime_error("obs histogram '" + entry.name +
                               "': restore with different bounds");
    }
    const std::size_t stride = entry.bounds.size() + 1;
    for (std::size_t shard = 0; shard < kMetricShards; ++shard) {
      for (std::size_t bucket = 0; bucket < stride; ++bucket) {
        entry.counts[shard * stride + bucket].value.store(
            shard == 0 ? v.counts[bucket] : 0, std::memory_order_relaxed);
      }
      entry.sums[shard].store(shard == 0 ? v.sum : 0.0,
                              std::memory_order_relaxed);
    }
  };

  // Pass 1: overwrite or (when nonzero) create every snapshot entry.
  for (const MetricsSnapshot::CounterValue& c : snap.counters) {
    const auto it = index_.find(c.name);
    if (it != index_.end()) {
      if (it->second.first != Kind::kCounter) {
        throw std::runtime_error("obs metric '" + c.name +
                                 "' restored with a different kind");
      }
      set_counter(counters_[it->second.second], c.value);
    } else if (c.value != 0) {
      counters_.emplace_back();
      counters_.back().name = c.name;
      set_counter(counters_.back(), c.value);
      index_.emplace(c.name,
                     std::make_pair(Kind::kCounter, counters_.size() - 1));
    }
  }
  for (const MetricsSnapshot::GaugeValue& g : snap.gauges) {
    const auto it = index_.find(g.name);
    if (it != index_.end()) {
      if (it->second.first != Kind::kGauge) {
        throw std::runtime_error("obs metric '" + g.name +
                                 "' restored with a different kind");
      }
      gauges_[it->second.second].value.store(g.value,
                                             std::memory_order_relaxed);
    } else if (g.value != 0.0) {
      gauges_.emplace_back();
      gauges_.back().name = g.name;
      gauges_.back().value.store(g.value, std::memory_order_relaxed);
      index_.emplace(g.name, std::make_pair(Kind::kGauge, gauges_.size() - 1));
    }
  }
  for (const MetricsSnapshot::HistogramValue& h : snap.histograms) {
    const auto it = index_.find(h.name);
    if (it != index_.end()) {
      if (it->second.first != Kind::kHistogram) {
        throw std::runtime_error("obs metric '" + h.name +
                                 "' restored with a different kind");
      }
      set_histogram(histograms_[it->second.second], h);
    } else if (h.count != 0) {
      histograms_.emplace_back();
      detail::HistogramEntry& entry = histograms_.back();
      entry.name = h.name;
      entry.is_timer = false;
      entry.bounds = h.bounds;
      entry.counts = std::vector<detail::ShardCell>(
          kMetricShards * (entry.bounds.size() + 1));
      set_histogram(entry, h);
      index_.emplace(h.name,
                     std::make_pair(Kind::kHistogram, histograms_.size() - 1));
    }
  }

  // Pass 2: zero entries registered here that the snapshot does not
  // mention (the snapshot may come from a branch point before this
  // registry's later registrations — their counts had not happened yet).
  const auto in_counters = [&snap](const std::string& name) {
    for (const auto& c : snap.counters) {
      if (c.name == name) return true;
    }
    return false;
  };
  const auto in_gauges = [&snap](const std::string& name) {
    for (const auto& g : snap.gauges) {
      if (g.name == name) return true;
    }
    return false;
  };
  const auto in_histograms = [&snap](const std::string& name) {
    for (const auto& h : snap.histograms) {
      if (h.name == name) return true;
    }
    return false;
  };
  for (detail::CounterEntry& entry : counters_) {
    if (!in_counters(entry.name)) set_counter(entry, 0);
  }
  for (detail::GaugeEntry& entry : gauges_) {
    if (!in_gauges(entry.name)) {
      entry.value.store(0.0, std::memory_order_relaxed);
    }
  }
  for (detail::HistogramEntry& entry : histograms_) {
    if (entry.is_timer || in_histograms(entry.name)) continue;
    MetricsSnapshot::HistogramValue zero;
    zero.bounds = entry.bounds;
    zero.counts.assign(entry.bounds.size() + 1, 0);
    set_histogram(entry, zero);
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
