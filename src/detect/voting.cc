#include "detect/voting.h"

#include <algorithm>
#include <cmath>

#include "common/lossy.h"

namespace corropt::detect {

namespace {

// Packets carried per flow; a flow "fails" (sees retransmits) when at
// least one packet is dropped, evaluated in closed form so the cost is
// independent of this count.
constexpr double kPacketsPerFlow = 1e6;
// Minimum (all) flows observed through a believed link in a window with
// zero failures before the report is withdrawn.
constexpr std::uint64_t kMinFlowsToClear = 6;

// Keyed choice of one index in [0, n); n > 0.
std::size_t keyed_index(common::CounterRng& rng, std::size_t n) {
  auto i = static_cast<std::size_t>(rng.uniform() * static_cast<double>(n));
  return i >= n ? n - 1 : i;
}

}  // namespace

VotingBackend::VotingBackend(const BackendEnv& env)
    : topo_(env.topo), state_(env.state), seed_(env.seed) {
  const std::size_t switches = topo_->switch_count();
  const std::vector<common::SwitchId>& tors = topo_->tors();

  tor_index_.assign(switches, -1);
  for (std::size_t t = 0; t < tors.size(); ++t) {
    tor_index_[tors[t].index()] = static_cast<int>(t);
  }

  // Bottom-up structural reachability: a ToR reaches itself; any other
  // switch reaches the union of what its downlink endpoints reach.
  reach_.resize(switches);
  for (const topology::Switch& sw : topo_->switches()) {
    reach_[sw.id.index()].assign(tors.size());
  }
  for (common::SwitchId tor : tors) {
    reach_[tor.index()].set(
        static_cast<std::size_t>(tor_index_[tor.index()]));
  }
  for (int level = 1; level < topo_->level_count(); ++level) {
    for (common::SwitchId id : topo_->switches_at_level(level)) {
      common::DynamicBitset& reach = reach_[id.index()];
      for (common::LinkId down : topo_->switch_at(id).downlinks) {
        reach |= reach_[topo_->link_at(down).lower.index()];
      }
    }
  }

  votes_.assign(topo_->link_count(), 0);
  flows_through_.assign(topo_->link_count(), 0);
  believed_.assign(topo_->link_count(), 0);
  invalidated_.assign(topo_->link_count(), 0);
}

bool VotingBackend::walk_path(common::CounterRng& rng, common::SwitchId src,
                              common::SwitchId dst, std::size_t dst_tor,
                              std::vector<common::LinkId>& links,
                              std::vector<common::DirectionId>& dirs) const {
  links.clear();
  dirs.clear();
  if (src == dst) return false;

  std::vector<common::LinkId> choices;
  common::SwitchId cur = src;

  // Up phase: climb until the current switch structurally reaches the
  // destination ToR (the lowest common ancestor level).
  while (!reach_[cur.index()].test(dst_tor)) {
    choices.clear();
    for (common::LinkId up : topo_->switch_at(cur).uplinks) {
      if (topo_->is_enabled(up)) choices.push_back(up);
    }
    if (choices.empty()) return false;
    const common::LinkId link = choices[keyed_index(rng, choices.size())];
    links.push_back(link);
    dirs.push_back(topology::direction_id(link, topology::LinkDirection::kUp));
    cur = topo_->link_at(link).upper;
  }

  // Down phase: descend along enabled links whose lower endpoint still
  // reaches the destination.
  while (cur != dst) {
    choices.clear();
    for (common::LinkId down : topo_->switch_at(cur).downlinks) {
      if (!topo_->is_enabled(down)) continue;
      if (reach_[topo_->link_at(down).lower.index()].test(dst_tor)) {
        choices.push_back(down);
      }
    }
    if (choices.empty()) return false;
    const common::LinkId link = choices[keyed_index(rng, choices.size())];
    links.push_back(link);
    dirs.push_back(
        topology::direction_id(link, topology::LinkDirection::kDown));
    cur = topo_->link_at(link).lower;
  }
  return true;
}

void VotingBackend::poll(common::SimTime /*now*/,
                         std::span<const common::LinkId> /*suspects*/,
                         const VerdictCallback& cb) {
  ++cycle_;
  const std::vector<common::SwitchId>& tors = topo_->tors();
  if (tors.size() >= 2) {
    std::vector<common::LinkId> links;
    std::vector<common::DirectionId> dirs;
    for (std::size_t flow = 0; flow < kFlowsPerCycle; ++flow) {
      common::CounterRng rng(seed_, cycle_, flow);
      const std::size_t src_tor = keyed_index(rng, tors.size());
      const std::size_t dst_tor = keyed_index(rng, tors.size());
      if (src_tor == dst_tor) continue;
      if (!walk_path(rng, tors[src_tor], tors[dst_tor], dst_tor, links,
                     dirs)) {
        continue;
      }
      obs_flows_.add();

      // Per-packet survival along the path, then the probability that at
      // least one of kPacketsPerFlow packets was dropped, folded with
      // the non-corruption noise floor.
      double log_survive = 0.0;
      for (common::DirectionId dir : dirs) {
        const double rate = state_->corruption_rate(dir);
        if (rate > 0.0) {
          log_survive += std::log1p(-std::min(rate, 1.0 - 1e-12));
        }
      }
      const double p_drop = -std::expm1(kPacketsPerFlow * log_survive);
      const double p_bad = p_drop + kNoiseBadProbability * (1.0 - p_drop);
      const bool bad = rng.bernoulli(p_bad);

      for (common::LinkId link : links) ++flows_through_[link.index()];
      if (bad) {
        obs_bad_flows_.add();
        for (common::LinkId link : links) ++votes_[link.index()];
        bad_paths_.push_back(links);
      }
    }
  }

  if (cycle_ % static_cast<std::uint64_t>(kWindowCycles) == 0) {
    decode(cb);
  }
}

void VotingBackend::decode(const VerdictCallback& cb) {
  // Greedy max-vote decomposition over this window's failed flows: the
  // top-voted link explains (and removes) its flows, repeat until no
  // link clears the vote floor. Reports fire inside the loop so a second
  // simultaneous bad link shadowed by the first is still surfaced.
  std::vector<std::uint64_t> vote_count = votes_;
  std::vector<char> alive(bad_paths_.size(), 1);
  for (;;) {
    std::size_t best = 0;
    std::uint64_t best_votes = 0;
    for (std::size_t l = 0; l < vote_count.size(); ++l) {
      if (invalidated_[l] != 0) continue;
      if (vote_count[l] >= kMinVotes && vote_count[l] > best_votes) {
        best = l;
        best_votes = vote_count[l];
      }
    }
    if (best_votes == 0) break;

    const double frac =
        static_cast<double>(best_votes) /
        static_cast<double>(std::max<std::uint64_t>(flows_through_[best], 1));
    // Invert the per-flow failure probability back to a per-packet rate.
    const double est =
        frac >= 1.0 ? 1.0
                    : std::min(1.0, -std::log1p(-frac) / kPacketsPerFlow);
    if (est >= common::kLossyThreshold && believed_[best] == 0) {
      believed_[best] = 1;
      Verdict verdict;
      verdict.kind = Verdict::Kind::kCorrupting;
      verdict.link = common::LinkId(static_cast<std::uint32_t>(best));
      verdict.loss_rate = est;
      cb(verdict);
    }

    for (std::size_t p = 0; p < bad_paths_.size(); ++p) {
      if (alive[p] == 0) continue;
      bool through = false;
      for (common::LinkId link : bad_paths_[p]) {
        if (link.index() == best) {
          through = true;
          break;
        }
      }
      if (!through) continue;
      alive[p] = 0;
      for (common::LinkId link : bad_paths_[p]) --vote_count[link.index()];
    }
  }

  // Clears: a believed link that carried enough flows this window with
  // zero failures is no longer corrupting.
  for (std::size_t l = 0; l < believed_.size(); ++l) {
    if (believed_[l] == 0 || invalidated_[l] != 0) continue;
    if (flows_through_[l] >= kMinFlowsToClear && votes_[l] == 0) {
      believed_[l] = 0;
      Verdict verdict;
      verdict.kind = Verdict::Kind::kCleared;
      verdict.link = common::LinkId(static_cast<std::uint32_t>(l));
      verdict.loss_rate = 0.0;
      cb(verdict);
    }
  }

  std::fill(votes_.begin(), votes_.end(), 0);
  std::fill(flows_through_.begin(), flows_through_.end(), 0);
  std::fill(invalidated_.begin(), invalidated_.end(), 0);
  bad_paths_.clear();
}

void VotingBackend::reset(common::LinkId link) {
  believed_[link.index()] = 0;
  invalidated_[link.index()] = 1;
}

void VotingBackend::attach_sink(obs::Sink* sink) {
  if (sink == nullptr || sink->metrics == nullptr) {
    obs_flows_ = obs::Counter();
    obs_bad_flows_ = obs::Counter();
    return;
  }
  obs_flows_ = sink->metrics->counter("detect.flows");
  obs_bad_flows_ = sink->metrics->counter("detect.bad_flows");
}

template <class Self, class Codec>
void VotingBackend::walk(Self& self, Codec& c) {
  c.section(common::snap::tag('V', 'O', 'T', 'B'), 1, "voting backend");
  c.u64(self.cycle_);
  c.guard(self.votes_.size(), "voting backend link count");
  for (auto& v : self.votes_) c.u64(v);
  for (auto& f : self.flows_through_) c.u64(f);
  c.seq(self.bad_paths_, [&c](auto& path) { c.ids(path); });
  for (auto& b : self.believed_) c.u8(b);
  for (auto& i : self.invalidated_) c.u8(i);
}

void VotingBackend::snapshot_to(common::snap::Writer& w) const {
  walk(*this, w);
}
void VotingBackend::restore_from(common::snap::Reader& r) { walk(*this, r); }

}  // namespace corropt::detect
