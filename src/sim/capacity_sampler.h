// CapacitySampler: periodic ToR path-fraction sampling.
//
// Schedules a kCapacitySample event every capacity_sample_interval;
// each sample records the minimum-over-ToRs fraction of available
// spine paths, the disabled-link count, and accumulates the
// mean-over-ToRs fraction for the Section 7.3 time average. Samples
// fire *before* any other event due at the same instant (stratum 0),
// preserving the legacy loop's sample-then-dispatch order.
//
// Most hours nothing changes, so the (worst, sum) pair of the last
// sample is kept under the topology's state version and reused while
// the version stands. When it moved, the pair is rescanned over the
// shared live counts (SimContext::paths), which fold in only the links
// that flipped. The pair is derived state: never checkpointed and
// dropped by start(). A restore needs no drop: restoring the topology
// advances its version past any this sampler cached.
#pragma once

#include <cstdint>

#include "sim/sim_context.h"

namespace corropt::sim {

class CapacitySampler {
 public:
  // Registers the kCapacitySample handler on the kernel.
  explicit CapacitySampler(SimContext& ctx);

  // Schedules the first sample (time 0); call once per run before the
  // event loop starts. Resets the sample counter.
  void start();

  // Converts the accumulated per-sample means into the time-averaged
  // mean ToR fraction; call at end of run.
  void finalize(SimulationMetrics& metrics) const;

  // Checkpointing (DESIGN.md §14): the sample count (the divisor of the
  // finalized time average).
  void snapshot_to(common::snap::Writer& w) const;
  void restore_from(common::snap::Reader& r);

 private:
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c);
  void handle_sample(const Event& event);

  SimContext& ctx_;
  std::size_t samples_ = 0;
  // The last sample's worst and summed ToR fractions, valid for link
  // state version cached_version_ while cached_ holds.
  bool cached_ = false;
  std::uint64_t cached_version_ = 0;
  double worst_ = 1.0;
  double sum_ = 0.0;
};

}  // namespace corropt::sim
