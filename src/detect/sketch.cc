#include "detect/sketch.h"

#include <algorithm>

#include "common/lossy.h"
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
// Mean drop count of one congestion-noise burst.
constexpr double kMeanNoiseDrops = 40.0;
// Offered packets per direction per poll cycle.
constexpr double kOfferedPerCycle =
    telemetry::kPacketsPerPoll * kPollUtilization;

}  // namespace

SketchBackend::SketchBackend(const BackendEnv& env)
    : topo_(env.topo), state_(env.state), seed_(env.seed) {
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
  return static_cast<std::size_t>(h % kWidth);
}

void SketchBackend::insert(common::DirectionId dir, std::uint64_t drops) {
  const common::SwitchId sw = topo_->transmitter(dir);
  std::vector<std::uint64_t>& sketch = sketches_[sw.index()];
  if (sketch.empty()) {
    sketch.assign(static_cast<std::size_t>(kWidth) * kDepth, 0);
  }
  for (std::uint32_t row = 0; row < kDepth; ++row) {
    sketch[static_cast<std::size_t>(row) * kWidth + cell(dir, row)] += drops;
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
  for (std::uint32_t row = 0; row < kDepth; ++row) {
    est = std::min(
        est, sketch[static_cast<std::size_t>(row) * kWidth + cell(dir, row)]);
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
            .poisson(kOfferedPerCycle * rates[d]);
    if (drops > 0) insert(dir, drops);
  }

  // Congestion noise: a few random directions per cycle record bursts
  // the sketch cannot attribute.
  const std::uint64_t noisy =
      common::CounterRng(seed_, kNoiseCountStream,
                         static_cast<std::uint64_t>(now))
          .poisson(kNoiseDirectionsPerCycle);
  for (std::uint64_t i = 0; i < noisy; ++i) {
    common::CounterRng rng(seed_, kNoiseStreamBase + i,
                           static_cast<std::uint64_t>(now));
    auto d = static_cast<std::size_t>(
        rng.uniform() * static_cast<double>(topo_->direction_count()));
    if (d >= topo_->direction_count()) d = topo_->direction_count() - 1;
    const auto dir = common::DirectionId(static_cast<std::uint32_t>(d));
    if (!topo_->is_enabled(topology::link_of(dir))) continue;
    const std::uint64_t drops = rng.poisson(kMeanNoiseDrops);
    if (drops > 0) insert(dir, drops);
  }

  if (cycle_ % static_cast<std::uint64_t>(kWindowPolls) == 0) {
    decode(cb);
  }
}

void SketchBackend::decode(const VerdictCallback& cb) {
  obs_decodes_.add();
  const double offered_window =
      kOfferedPerCycle * static_cast<double>(kWindowPolls);

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
    if (rate >= common::kLossyThreshold) {
      if (++above_[link.index()] >= kPersistenceWindows &&
          believed_[link.index()] == 0) {
        believed_[link.index()] = 1;
        Verdict verdict;
        verdict.kind = Verdict::Kind::kCorrupting;
        verdict.link = link;
        verdict.loss_rate = rate;
        cb(verdict);
      }
    } else {
      above_[link.index()] = 0;
      if (believed_[link.index()] != 0 && rate < common::kClearThreshold) {
        believed_[link.index()] = 0;
        Verdict verdict;
        verdict.kind = Verdict::Kind::kCleared;
        verdict.link = link;
        verdict.loss_rate = rate;
        cb(verdict);
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
    for (std::uint32_t row = 0; row < kDepth; ++row) {
      std::uint64_t& c =
          sketch[static_cast<std::size_t>(row) * kWidth + cell(dir, row)];
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

template <class Self, class Codec>
void SketchBackend::walk(Self& self, Codec& c) {
  c.section(common::snap::tag('S', 'K', 'T', 'B'), 1, "sketch backend");
  c.u64(self.cycle_);
  // Sparse per-switch sketches: only the allocated (non-empty) ones,
  // each behind its switch index.
  c.guard(self.sketches_.size(), "sketch backend switch count");
  std::vector<std::uint64_t> allocated;
  if constexpr (Codec::kReading) {
    for (std::vector<std::uint64_t>& s : self.sketches_) s.clear();
  } else {
    for (std::size_t sw = 0; sw < self.sketches_.size(); ++sw) {
      if (!self.sketches_[sw].empty()) allocated.push_back(sw);
    }
  }
  const std::size_t cells = static_cast<std::size_t>(kWidth) * kDepth;
  c.seq(allocated, [&](auto& sw) {
    c.u64(sw);
    c.check(sw < self.sketches_.size(),
            "sketch backend switch id out of range");
    auto& s = self.sketches_[sw];
    if constexpr (Codec::kReading) s.resize(cells);
    for (auto& cell : s) c.u64(cell);
  });
  c.guard(self.inserted_.size(), "sketch backend direction count");
  for (auto& v : self.inserted_) c.u64(v);
  c.ids(self.dirty_list_);
  if constexpr (Codec::kReading) {
    std::fill(self.dirty_.begin(), self.dirty_.end(), 0);
    for (common::SwitchId sw : self.dirty_list_) {
      c.check(sw.index() < self.dirty_.size(),
              "sketch backend dirty switch id out of range");
      self.dirty_[sw.index()] = 1;
    }
  }
  c.guard(self.above_.size(), "sketch backend link count");
  for (auto& a : self.above_) c.i64(a);
  for (auto& b : self.believed_) c.u8(b);
}

void SketchBackend::snapshot_to(common::snap::Writer& w) const {
  walk(*this, w);
}
void SketchBackend::restore_from(common::snap::Reader& r) { walk(*this, r); }

}  // namespace corropt::detect
