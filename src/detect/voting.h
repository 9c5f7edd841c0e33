// 007-style voting localizer (Arzani et al., NSDI 2018).
//
// Instead of polling switch counters, the backend synthesizes end-host
// flows: each poll cycle it draws (src ToR, dst ToR) pairs, walks a
// valley-free Clos path over enabled links (up to the lowest common
// ancestor, then down), and evaluates in closed form whether the flow
// would have seen a retransmit given the per-direction corruption rates
// it traversed. Every failed flow casts one vote on every link of its
// path; at the end of each window a greedy max-vote decomposition names
// the smallest set of links explaining the failed flows, and links whose
// implied per-packet rate crosses the report threshold are surfaced.
//
// Determinism: every draw comes from a CounterRng keyed on
// (seed, cycle, flow), so flows are independent of evaluation order and
// the backend never touches the shared sequential sim stream.
#pragma once

#include <vector>

#include "common/bitset.h"
#include "detect/backend.h"

namespace corropt::detect {

class VotingBackend final : public DetectionBackend {
 public:
  // Poll cycles aggregated per voting round (8 cycles = 2 hours).
  static constexpr int kWindowCycles = 8;
  // Flows synthesized per 15-minute poll cycle, spread over random
  // (src ToR, dst ToR) pairs with valley-free Clos paths.
  static constexpr std::size_t kFlowsPerCycle = 2000;
  // Minimum failed flows through a link before it can be named a
  // suspect; 007's guard against single-flow noise.
  static constexpr std::uint64_t kMinVotes = 3;
  // Per-flow probability of failing for non-corruption reasons
  // (congestion bursts, host retransmit noise); the localizer's false
  // positive source.
  static constexpr double kNoiseBadProbability = 5e-4;

  explicit VotingBackend(const BackendEnv& env);

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kVoting;
  }

  void poll(common::SimTime now, std::span<const common::LinkId> suspects,
            const VerdictCallback& cb) override;
  void reset(common::LinkId link) override;
  void attach_sink(obs::Sink* sink) override;

  // Checkpoints the cycle counter (which keys every CounterRng draw),
  // the window accumulators and the belief flags; reach_/tor_index_ are
  // structural and rebuilt at construction.
  void snapshot_to(common::snap::Writer& w) const override;
  void restore_from(common::snap::Reader& r) override;

 private:
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c);

  // Synthesizes one flow's path; returns false when the pair is
  // unroutable (src == dst, or disabled links cut every choice).
  bool walk_path(common::CounterRng& rng, common::SwitchId src,
                 common::SwitchId dst, std::size_t dst_tor,
                 std::vector<common::LinkId>& links,
                 std::vector<common::DirectionId>& dirs) const;

  // End-of-window decode: greedy vote decomposition + clears.
  void decode(const VerdictCallback& cb);

  const topology::Topology* topo_;
  const telemetry::NetworkState* state_;
  std::uint64_t seed_ = 0;

  // Structural reachability, computed once: reach_[switch] has bit t set
  // when ToR index t is reachable by strictly-downward links (ignoring
  // administrative state; the walk itself respects enabled links).
  std::vector<common::DynamicBitset> reach_;
  // ToR index (position in topo.tors()) per switch; -1 for non-ToRs.
  std::vector<int> tor_index_;

  std::uint64_t cycle_ = 0;
  // Window accumulators, indexed by link.
  std::vector<std::uint64_t> votes_;
  std::vector<std::uint64_t> flows_through_;
  // Paths (link lists) of the window's failed flows, for decomposition.
  std::vector<std::vector<common::LinkId>> bad_paths_;
  // Links currently reported as corrupting.
  std::vector<char> believed_;
  // Links reset mid-window: their stale votes are excluded from this
  // window's decode.
  std::vector<char> invalidated_;

  obs::Counter obs_flows_;
  obs::Counter obs_bad_flows_;
};

}  // namespace corropt::detect
