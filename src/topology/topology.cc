#include "topology/topology.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdlib>

#include "common/logging.h"

namespace corropt::topology {

SwitchId Topology::add_switch(int level, std::string name, int pod) {
  assert(level >= 0);
  const SwitchId id(static_cast<SwitchId::underlying_type>(switches_.size()));
  Switch sw;
  sw.id = id;
  sw.level = level;
  sw.pod = pod;
  sw.name = std::move(name);
  switches_.push_back(std::move(sw));
  if (level + 1 > level_count_) {
    level_count_ = level + 1;
    by_level_.resize(static_cast<std::size_t>(level_count_));
  }
  by_level_[static_cast<std::size_t>(level)].push_back(id);
  return id;
}

LinkId Topology::add_link(SwitchId lower, SwitchId upper) {
  assert(lower.valid() && upper.valid());
  const Switch& lo = switch_at(lower);
  const Switch& up = switch_at(upper);
  assert(lo.level + 1 == up.level && "links connect adjacent levels");
  (void)lo;
  (void)up;
  const LinkId id(static_cast<LinkId::underlying_type>(links_.size()));
  Link link;
  link.id = id;
  link.lower = lower;
  link.upper = upper;
  links_.push_back(link);
  enabled_mask_.push_back(true);
  switches_[lower.index()].uplinks.push_back(id);
  switches_[upper.index()].downlinks.push_back(id);
  ++enabled_links_;
  return id;
}

void Topology::set_breakout_group(LinkId id, int group) {
  assert(group >= -1);
  links_[id.index()].breakout_group = group;
  if (group >= next_breakout_group_) next_breakout_group_ = group + 1;
}

int Topology::assign_breakout_groups(int group_size, int lower_level) {
  assert(group_size >= 2);
  int groups = 0;
  for (Switch& sw : switches_) {
    if (sw.level != lower_level) continue;
    for (std::size_t start = 0; start + group_size <= sw.uplinks.size();
         start += static_cast<std::size_t>(group_size)) {
      const int group = next_breakout_group_++;
      ++groups;
      for (int offset = 0; offset < group_size; ++offset) {
        links_[sw.uplinks[start + static_cast<std::size_t>(offset)].index()]
            .breakout_group = group;
      }
    }
  }
  return groups;
}

const Switch& Topology::switch_at(SwitchId id) const {
  assert(id.valid() && id.index() < switches_.size());
  return switches_[id.index()];
}

const Link& Topology::link_at(LinkId id) const {
  assert(id.valid() && id.index() < links_.size());
  return links_[id.index()];
}

const std::vector<SwitchId>& Topology::switches_at_level(int level) const {
  static const std::vector<SwitchId> kEmpty;
  if (level < 0 || level >= level_count_) return kEmpty;
  return by_level_[static_cast<std::size_t>(level)];
}

void Topology::set_enabled(LinkId id, bool enabled) {
  assert(id.valid() && id.index() < links_.size());
  if (enabled_mask_.test(id.index()) == enabled) return;
  enabled_mask_.set(id.index(), enabled);
  enabled_links_ += enabled ? 1 : -1;
  ++version_;
}

SwitchId Topology::transmitter(DirectionId dir) const {
  const Link& link = link_at(link_of(dir));
  return direction_of(dir) == LinkDirection::kUp ? link.lower : link.upper;
}

std::vector<LinkId> Topology::breakout_peers(LinkId id) const {
  const Link& link = link_at(id);
  if (link.breakout_group < 0) return {id};
  std::vector<LinkId> peers;
  // Breakout groups bundle uplinks of a single switch, so scanning that
  // switch's uplinks finds all members without a global pass.
  for (LinkId candidate : switch_at(link.lower).uplinks) {
    if (link_at(candidate).breakout_group == link.breakout_group) {
      peers.push_back(candidate);
    }
  }
  return peers;
}

void Topology::validate() const {
  for (const Link& link : links_) {
    const Switch& lo = switch_at(link.lower);
    const Switch& up = switch_at(link.upper);
    if (lo.level + 1 != up.level) {
      CORROPT_LOG_ERROR << "link " << link.id.value()
                        << " spans non-adjacent levels " << lo.level
                        << " and " << up.level;
      std::abort();
    }
  }
  std::size_t uplink_total = 0;
  std::size_t downlink_total = 0;
  for (const Switch& sw : switches_) {
    uplink_total += sw.uplinks.size();
    downlink_total += sw.downlinks.size();
    for (LinkId id : sw.uplinks) {
      if (link_at(id).lower != sw.id) {
        CORROPT_LOG_ERROR << "uplink list corrupt at switch "
                          << sw.id.value();
        std::abort();
      }
    }
    for (LinkId id : sw.downlinks) {
      if (link_at(id).upper != sw.id) {
        CORROPT_LOG_ERROR << "downlink list corrupt at switch "
                          << sw.id.value();
        std::abort();
      }
    }
  }
  if (uplink_total != links_.size() || downlink_total != links_.size()) {
    CORROPT_LOG_ERROR << "endpoint link lists do not cover all links";
    std::abort();
  }
}

template <class Self, class Codec>
void Topology::walk(Self& self, Codec& c) {
  c.section(common::snap::tag('T', 'O', 'P', 'O'), 2, "topology");
  c.guard(self.links_.size(), "topology link count");
  for (auto& word : self.enabled_mask_.words()) c.u64(word);
  const std::size_t tail = self.links_.size() % 64;
  c.check(tail == 0 || self.enabled_mask_.words().back() >> tail == 0,
          "topology mask sets a bit past the last link");
  if constexpr (Codec::kReading) {
    self.enabled_links_ = 0;
    for (const std::uint64_t word : self.enabled_mask_.words()) {
      self.enabled_links_ += static_cast<std::size_t>(std::popcount(word));
    }
    ++self.version_;
  }
}

void Topology::snapshot_to(common::snap::Writer& w) const { walk(*this, w); }
void Topology::restore_from(common::snap::Reader& r) { walk(*this, r); }

}  // namespace corropt::topology
