// Corruption trace synthesis and serialization.
//
// The paper's Section 7.1 simulations replay link-corruption traces
// recorded in two production DCNs from Oct to Dec 2016. Those traces are
// proprietary, so we synthesize equivalents: faults arrive as a Poisson
// process over the link population, each drawing a root cause from the
// Table 2 mix and a loss rate from the Table 1 corruption distribution.
// Shared-component faults strike co-located bundles, reproducing the weak
// spatial locality of Figure 4. A trace is a pure function of the
// topology, the parameters and the seed, so experiments re-run
// bit-identically by regenerating it.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "faults/fault.h"
#include "faults/fault_factory.h"
#include "topology/topology.h"

namespace corropt::trace {

using common::SimDuration;
using common::SimTime;

struct TraceEvent {
  SimTime time = 0;
  faults::Fault fault;
};

struct TraceParams {
  // Expected new faults per link per day. The default gives a ~34K-link
  // DCN roughly 5 new corrupting-link events per day; with multi-day
  // repair times, demanding capacity constraints then bind the way the
  // paper reports (up to 15% of corrupting links cannot be disabled).
  double faults_per_link_per_day = 1.5e-4;
  SimDuration duration = 90 * common::kDay;
  faults::FaultMixParams mix;

  // Correlated bursts: the paper observes that spatially related links
  // start corrupting packets at roughly the same time (Section 3) —
  // maintenance accidents, bad component batches, environmental events.
  // With probability p_burst, a fault arrival is followed by 1..burst_max
  // further faults within burst_window, on the same switch (with
  // probability p_burst_same_switch) or elsewhere in the same pod.
  double p_burst = 0.05;
  int burst_max = 3;
  double p_burst_same_switch = 0.6;
  SimDuration burst_window = 12 * common::kHour;
};

class CorruptionTraceGenerator {
 public:
  CorruptionTraceGenerator(const topology::Topology& topo, TraceParams params,
                           common::Rng& rng);

  // Generates a time-sorted fault arrival trace over [0, duration).
  [[nodiscard]] std::vector<TraceEvent> generate();

 private:
  const topology::Topology* topo_;
  TraceParams params_;
  common::Rng* rng_;
};

}  // namespace corropt::trace
