// Measurement-study driver (Sections 2-3).
//
// Reproduces the paper's monitoring setup on a synthetic DCN: a
// population of links carries diurnal traffic with congestion losses at
// hotspots, a subset of links corrupts packets due to injected faults
// (stable over the study window, as the paper observes), and an SNMP-like
// monitor polls every direction every 15 minutes. Benches stream the poll
// samples through accumulators to regenerate Figures 1-5 and Table 1.
//
// Telemetry synthesis is sharded: the direction domain is cut into
// fixed ranges of kDirectionsPerTile, each tile fills one accumulator
// partial over the whole study window, and partials merge back in tile
// order. Because
// every sample is drawn from a counter-keyed generator — keyed on
// (study seed, direction, epoch), never on how many draws came before —
// the result is bit-identical whether the tiles run on one thread or
// sixteen. See DESIGN.md §9.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/time.h"
#include "congestion/congestion_model.h"
#include "faults/fault_factory.h"
#include "faults/injector.h"
#include "obs/sink.h"
#include "obs/timer.h"
#include "telemetry/monitor.h"
#include "telemetry/network_state.h"
#include "topology/topology.h"

namespace corropt::analysis {

using common::SimDuration;
using common::SimTime;

struct StudyConfig {
  int days = 7;
  SimDuration epoch = common::kPollInterval;
  // Fraction of links seeded with a corruption fault at study start.
  // The paper keeps absolute prevalence confidential; a few percent of
  // links reproduces the reported bucket distributions.
  double corrupting_link_fraction = 0.02;
  faults::FaultMixParams mix;
  std::uint64_t seed = 42;

  // Optional observability: tile synthesis records into the
  // "study.synthesize_s" timer and the final merge into "study.merge_s".
  obs::Sink* sink = nullptr;
};

// An accumulator consumes poll samples through per-shard partials:
//
//   auto partial = acc.make_partial();  // one per tile, on the worker
//   partial.add(sample);                // tile-local samples
//   acc.merge(partial);                 // tile order, on the caller
//
// Within a tile, samples arrive direction-major: directions ascend and
// each direction's epochs ascend contiguously. A tile spans the whole
// study window, so a direction's full series lands in exactly one
// partial and per-direction stats can simply be copied on merge.
template <typename A>
concept StudyAccumulator =
    requires(const A ca, A a, typename A::Partial p,
             const telemetry::PollSample& s) {
      { ca.make_partial() } -> std::same_as<typename A::Partial>;
      p.add(s);
      a.merge(p);
    };

// Accumulators whose output only depends on lossy telemetry can declare
//   static constexpr bool kLossCapableOnly = true;
// to restrict the sample stream to loss-capable directions: those with a
// nonzero injected corruption rate or a closed-form utilization bound
// above the congestion knee. Every skipped direction provably reports
// zero drops in every epoch (faults are stable over the window and
// loss_rate() is zero at or below the knee), so drop tallies are
// unchanged while the synthesis loop shrinks from the whole fabric to
// the few percent of it that can lose packets.
template <typename A>
[[nodiscard]] consteval bool loss_capable_only() {
  if constexpr (requires { A::kLossCapableOnly; }) {
    return A::kLossCapableOnly;
  } else {
    return false;
  }
}

class MeasurementStudy {
 public:
  // Directions per shard of run(). The tile size is fixed and never
  // derived from the worker count, so the tile set — and therefore the
  // merge order — is identical no matter how many threads execute it.
  static constexpr std::size_t kDirectionsPerTile = 128;

  MeasurementStudy(const topology::Topology& topo, StudyConfig config);

  // One direction range of the study, over the whole window.
  // `dir_begin`/`dir_end` index into the direction domain (all
  // directions, or the loss-capable subset), not raw direction ids.
  struct Tile {
    std::size_t dir_begin = 0;
    std::size_t dir_end = 0;
  };

  // Streams every poll sample of the study window through the
  // accumulator. With a pool, tiles run across its workers; the merge
  // order is the fixed tile order either way, so the accumulated result
  // is bit-identical for any thread count (including pool == nullptr).
  template <StudyAccumulator A>
  void run(A& acc, common::ThreadPool* pool = nullptr) const {
    std::vector<const MeasurementStudy*> studies = {this};
    run_many<A>(studies, {&acc, 1}, pool);
  }

  // Runs several studies as one flat tile list through a shared pool
  // (fig01's 15 DCNs): tiles of small studies interleave with tiles of
  // large ones, so the pool never idles waiting for a study boundary.
  // Each study's accumulator receives exactly the merges a solo run()
  // would have produced, in the same order.
  template <StudyAccumulator A>
  static void run_many(const std::vector<const MeasurementStudy*>& studies,
                       std::span<A> accs, common::ThreadPool* pool) {
    constexpr bool lossy_only = loss_capable_only<A>();
    struct Work {
      const MeasurementStudy* study;
      Tile tile;
    };
    std::vector<Work> work;
    std::vector<std::size_t> offsets;
    offsets.reserve(studies.size() + 1);
    for (const MeasurementStudy* study : studies) {
      offsets.push_back(work.size());
      for (const Tile& tile : study->plan_tiles(lossy_only)) {
        work.push_back({study, tile});
      }
    }
    offsets.push_back(work.size());

    std::vector<std::optional<typename A::Partial>> partials(work.size());
    const auto fill = [&](std::size_t i) {
      const Work& w = work[i];
      obs::ScopedTimer timer(w.study->synth_timer_);
      const A& acc = accs[acc_index(offsets, i)];
      partials[i].emplace(acc.make_partial());
      w.study->synthesize_tile(w.tile, lossy_only, *partials[i]);
    };
    if (pool != nullptr && pool->thread_count() > 1 && work.size() > 1) {
      common::parallel_for_each(*pool, work.size(), fill);
    } else {
      for (std::size_t i = 0; i < work.size(); ++i) fill(i);
    }

    for (std::size_t s = 0; s < studies.size(); ++s) {
      obs::ScopedTimer timer(studies[s]->merge_timer_);
      for (std::size_t i = offsets[s]; i < offsets[s + 1]; ++i) {
        accs[s].merge(*partials[i]);
        partials[i].reset();
      }
    }
  }

  // The keyed sample at (dir, t): the unit of work every entry point
  // above shares. Pure in (construction state, dir, t).
  [[nodiscard]] telemetry::PollSample sample(common::DirectionId dir,
                                             SimTime t) const;

  // Directions that can report a nonzero drop count in some epoch; the
  // rest is what kLossCapableOnly accumulators skip.
  [[nodiscard]] std::size_t loss_capable_directions() const {
    return lossy_dirs_.size();
  }

  // Links seeded with corruption faults, with their injected link-level
  // loss rates.
  [[nodiscard]] const std::vector<std::pair<common::LinkId, double>>&
  corrupting_links() const {
    return corrupting_;
  }

  [[nodiscard]] const congestion::CongestionModel& congestion_model() const {
    return congestion_;
  }
  [[nodiscard]] int epochs_per_day() const {
    return static_cast<int>(common::kDay / config_.epoch);
  }

 private:
  static std::size_t acc_index(const std::vector<std::size_t>& offsets,
                               std::size_t work_index) {
    std::size_t s = 0;
    while (offsets[s + 1] <= work_index) ++s;
    return s;
  }

  // The fixed shard grid over the direction domain, in domain order.
  [[nodiscard]] std::vector<Tile> plan_tiles(bool lossy_only) const;
  [[nodiscard]] const std::vector<std::uint32_t>& domain(
      bool lossy_only) const {
    return lossy_only ? lossy_dirs_ : all_dirs_;
  }

  template <typename Partial>
  void synthesize_tile(const Tile& tile, bool lossy_only,
                       Partial& out) const {
    const std::vector<std::uint32_t>& dirs = domain(lossy_only);
    const SimTime end = config_.days * common::kDay;
    for (std::size_t i = tile.dir_begin; i < tile.dir_end; ++i) {
      const common::DirectionId dir(dirs[i]);
      for (SimTime t = 0; t < end; t += config_.epoch) {
        out.add(sample(dir, t));
      }
    }
  }

  StudyConfig config_;
  common::Rng rng_;
  telemetry::NetworkState state_;
  faults::FaultInjector injector_;
  congestion::CongestionModel congestion_;
  std::vector<std::pair<common::LinkId, double>> corrupting_;
  // Seed of the per-sample poll keys, derived from (but decorrelated
  // with) the construction stream.
  std::uint64_t poll_seed_ = 0;
  std::vector<std::uint32_t> all_dirs_;
  std::vector<std::uint32_t> lossy_dirs_;
  obs::Histogram synth_timer_;
  obs::Histogram merge_timer_;
};

}  // namespace corropt::analysis
