#include "detect/sketch.h"

#include <algorithm>

#include "telemetry/monitor.h"

namespace corropt::detect {

namespace {

// splitmix64 finalizer; the project's standard key mixer.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Reserved CounterRng streams for the congestion-noise model; direction
// ids are 32-bit so these can never collide with per-direction streams.
constexpr std::uint64_t kNoiseCountStream = 1ULL << 33;
constexpr std::uint64_t kNoiseStreamBase = 1ULL << 34;

}  // namespace

SketchBackend::SketchBackend(const SketchParams& params, const BackendEnv& env)
    : topo_(env.topo),
      state_(env.state),
      params_(params),
      seed_(env.seed),
      offered_per_cycle_(telemetry::kDefaultPacketsPerPoll *
                         env.poll_utilization) {
  sketches_.resize(topo_->switch_count());
  inserted_.assign(topo_->direction_count(), 0);
  dirty_.assign(topo_->switch_count(), 0);
  above_.assign(topo_->link_count(), 0);
  believed_.assign(topo_->link_count(), 0);
  link_mark_.assign(topo_->link_count(), 0);
}

std::size_t SketchBackend::cell(common::DirectionId dir,
                                std::uint32_t row) const {
  const std::uint64_t h = mix64(
      seed_ ^ (static_cast<std::uint64_t>(dir.value()) |
               (static_cast<std::uint64_t>(row + 1) << 32)));
  return static_cast<std::size_t>(h % params_.width);
}

void SketchBackend::insert(common::DirectionId dir, std::uint64_t drops) {
  const common::SwitchId sw = topo_->transmitter(dir);
  std::vector<std::uint64_t>& sketch = sketches_[sw.index()];
  if (sketch.empty()) {
    sketch.assign(static_cast<std::size_t>(params_.width) * params_.depth, 0);
  }
  for (std::uint32_t row = 0; row < params_.depth; ++row) {
    sketch[static_cast<std::size_t>(row) * params_.width + cell(dir, row)] +=
        drops;
  }
  inserted_[dir.index()] += drops;
  if (dirty_[sw.index()] == 0) {
    dirty_[sw.index()] = 1;
    dirty_list_.push_back(sw);
  }
  obs_inserts_.add();
}

std::uint64_t SketchBackend::query(common::DirectionId dir) const {
  const std::vector<std::uint64_t>& sketch =
      sketches_[topo_->transmitter(dir).index()];
  if (sketch.empty()) return 0;
  std::uint64_t est = ~std::uint64_t{0};
  for (std::uint32_t row = 0; row < params_.depth; ++row) {
    est = std::min(est, sketch[static_cast<std::size_t>(row) * params_.width +
                               cell(dir, row)]);
  }
  return est;
}

void SketchBackend::poll(common::SimTime now,
                         std::span<const common::LinkId> /*suspects*/,
                         const VerdictCallback& cb) {
  ++cycle_;

  // Corruption drops: every lossy enabled direction records a Poisson
  // count of its offered load times its rate.
  const std::span<const double> rates = state_->corruption_rates();
  for (std::size_t d = 0; d < rates.size(); ++d) {
    if (rates[d] <= 0.0) continue;
    const auto dir = common::DirectionId(static_cast<std::uint32_t>(d));
    if (!topo_->is_enabled(topology::link_of(dir))) continue;
    const std::uint64_t drops =
        common::CounterRng(seed_, d, static_cast<std::uint64_t>(now))
            .poisson(offered_per_cycle_ * rates[d]);
    if (drops > 0) insert(dir, drops);
  }

  // Congestion noise: a few random directions per cycle record bursts
  // the sketch cannot attribute.
  const std::uint64_t noisy =
      common::CounterRng(seed_, kNoiseCountStream,
                         static_cast<std::uint64_t>(now))
          .poisson(params_.noise_directions_per_cycle);
  for (std::uint64_t i = 0; i < noisy; ++i) {
    common::CounterRng rng(seed_, kNoiseStreamBase + i,
                           static_cast<std::uint64_t>(now));
    auto d = static_cast<std::size_t>(
        rng.uniform() * static_cast<double>(topo_->direction_count()));
    if (d >= topo_->direction_count()) d = topo_->direction_count() - 1;
    const auto dir = common::DirectionId(static_cast<std::uint32_t>(d));
    if (!topo_->is_enabled(topology::link_of(dir))) continue;
    const std::uint64_t drops = rng.poisson(params_.mean_noise_drops);
    if (drops > 0) insert(dir, drops);
  }

  if (cycle_ % static_cast<std::uint64_t>(params_.window_polls) == 0) {
    decode(now, cb);
  }
}

void SketchBackend::decode(common::SimTime now, const VerdictCallback& cb) {
  obs_decodes_.add();
  const double offered_window =
      offered_per_cycle_ * static_cast<double>(params_.window_polls);

  // Candidates: every link with an egress direction on a dirty switch
  // (collisions make any of them decodable above zero) plus every
  // believed link (to observe recovery), judged in link-id order.
  std::vector<common::LinkId> candidates;
  auto add = [this, &candidates](common::LinkId link) {
    if (link_mark_[link.index()] != 0) return;
    link_mark_[link.index()] = 1;
    candidates.push_back(link);
  };
  for (common::SwitchId sw : dirty_list_) {
    for (common::LinkId link : topo_->switch_at(sw).uplinks) add(link);
    for (common::LinkId link : topo_->switch_at(sw).downlinks) add(link);
  }
  for (std::size_t l = 0; l < believed_.size(); ++l) {
    if (believed_[l] != 0) add(common::LinkId(static_cast<std::uint32_t>(l)));
  }
  for (common::LinkId link : candidates) link_mark_[link.index()] = 0;
  std::sort(candidates.begin(), candidates.end());

  if (offered_window >= static_cast<double>(params_.min_packets)) {
    for (common::LinkId link : candidates) {
      if (!topo_->is_enabled(link)) {
        // Disabled links carry no traffic: no fresh evidence either way,
        // mirroring the threshold detector's min-packets guard.
        above_[link.index()] = 0;
        continue;
      }
      const std::uint64_t drops = std::max(
          query(topology::direction_id(link, topology::LinkDirection::kUp)),
          query(topology::direction_id(link, topology::LinkDirection::kDown)));
      const double rate = static_cast<double>(drops) / offered_window;
      if (rate >= params_.report_threshold) {
        if (++above_[link.index()] >= params_.persistence_windows &&
            believed_[link.index()] == 0) {
          believed_[link.index()] = 1;
          Verdict verdict;
          verdict.kind = Verdict::Kind::kCorrupting;
          verdict.link = link;
          verdict.loss_rate = rate;
          verdict.time = now;
          cb(verdict);
        }
      } else {
        above_[link.index()] = 0;
        if (believed_[link.index()] != 0 && rate < params_.clear_threshold) {
          believed_[link.index()] = 0;
          Verdict verdict;
          verdict.kind = Verdict::Kind::kCleared;
          verdict.link = link;
          verdict.loss_rate = rate;
          verdict.time = now;
          cb(verdict);
        }
      }
    }
  }

  // Sketches hold window deltas: forget everything for the next window.
  for (common::SwitchId sw : dirty_list_) {
    std::vector<std::uint64_t>& sketch = sketches_[sw.index()];
    std::fill(sketch.begin(), sketch.end(), 0);
    dirty_[sw.index()] = 0;
  }
  dirty_list_.clear();
  std::fill(inserted_.begin(), inserted_.end(), 0);
}

void SketchBackend::reset(common::LinkId link) {
  believed_[link.index()] = 0;
  above_[link.index()] = 0;
  // Subtract the link's exact contribution from the current window so a
  // repaired link is not re-reported from stale deltas. Colliding
  // directions keep their own counts.
  for (const topology::LinkDirection d :
       {topology::LinkDirection::kUp, topology::LinkDirection::kDown}) {
    const auto dir = topology::direction_id(link, d);
    const std::uint64_t amount = inserted_[dir.index()];
    if (amount == 0) continue;
    inserted_[dir.index()] = 0;
    std::vector<std::uint64_t>& sketch =
        sketches_[topo_->transmitter(dir).index()];
    if (sketch.empty()) continue;
    for (std::uint32_t row = 0; row < params_.depth; ++row) {
      std::uint64_t& c =
          sketch[static_cast<std::size_t>(row) * params_.width +
                 cell(dir, row)];
      c -= std::min(c, amount);
    }
  }
}

void SketchBackend::attach_sink(obs::Sink* sink) {
  if (sink == nullptr || sink->metrics == nullptr) {
    obs_inserts_ = obs::Counter();
    obs_decodes_ = obs::Counter();
    return;
  }
  obs_inserts_ = sink->metrics->counter("detect.sketch_inserts");
  obs_decodes_ = sink->metrics->counter("detect.sketch_decodes");
}

void SketchBackend::snapshot_to(common::snap::Writer& w) const {
  w.section(common::snap::tag('S', 'K', 'T', 'B'), 1);
  w.u64(cycle_);
  // Sparse per-switch sketches: only allocated (non-empty) ones.
  w.u64(sketches_.size());
  std::uint64_t allocated = 0;
  for (const std::vector<std::uint64_t>& s : sketches_) {
    if (!s.empty()) ++allocated;
  }
  w.u64(allocated);
  for (std::size_t sw = 0; sw < sketches_.size(); ++sw) {
    if (sketches_[sw].empty()) continue;
    w.u64(sw);
    for (std::uint64_t c : sketches_[sw]) w.u64(c);
  }
  w.u64(inserted_.size());
  for (std::uint64_t v : inserted_) w.u64(v);
  w.u64(dirty_list_.size());
  for (common::SwitchId sw : dirty_list_) w.u32(sw.value());
  w.u64(above_.size());
  for (int a : above_) w.i64(a);
  for (char b : believed_) w.u8(static_cast<std::uint8_t>(b));
}

void SketchBackend::restore_from(common::snap::Reader& r) {
  r.expect_section(common::snap::tag('S', 'K', 'T', 'B'));
  cycle_ = r.u64();
  if (r.u64() != sketches_.size()) {
    common::snap::fail("sketch backend switch count mismatch");
  }
  const std::size_t cells =
      static_cast<std::size_t>(params_.width) * params_.depth;
  for (std::vector<std::uint64_t>& s : sketches_) s.clear();
  const std::uint64_t allocated = r.u64();
  for (std::uint64_t i = 0; i < allocated; ++i) {
    const std::uint64_t sw = r.u64();
    if (sw >= sketches_.size()) {
      common::snap::fail("sketch backend switch id out of range");
    }
    std::vector<std::uint64_t>& s = sketches_[sw];
    s.resize(cells);
    for (std::uint64_t& c : s) c = r.u64();
  }
  if (r.u64() != inserted_.size()) {
    common::snap::fail("sketch backend direction count mismatch");
  }
  for (std::uint64_t& v : inserted_) v = r.u64();
  std::fill(dirty_.begin(), dirty_.end(), 0);
  dirty_list_.resize(r.length());
  for (common::SwitchId& sw : dirty_list_) {
    sw = common::SwitchId(r.u32());
    dirty_[sw.index()] = 1;
  }
  if (r.u64() != above_.size()) {
    common::snap::fail("sketch backend link count mismatch");
  }
  for (int& a : above_) a = static_cast<int>(r.i64());
  for (char& b : believed_) b = static_cast<char>(r.u8());
}

}  // namespace corropt::detect
