// Multi-stage data center topology model.
//
// The paper studies ToR-Agg-Spine Clos networks (Section 5.1) in which
// every inter-switch link is a bidirectional optical link. We model the
// topology as a leveled DAG: level 0 holds the top-of-rack switches and
// the highest level holds the spine. Every link connects adjacent levels
// ("valley-free" paths are exactly the strictly-upward paths from a ToR
// to the spine). Each physical link carries two directions that can fail
// independently (corruption is asymmetric, Section 3) but is enabled or
// disabled as a unit, matching the constraint that current hardware has
// no unidirectional links (Section 3, footnote 3).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "common/ids.h"
#include "common/snapshot.h"

namespace corropt::topology {

using common::DirectionId;
using common::LinkId;
using common::SwitchId;

struct Switch {
  SwitchId id;
  // 0 = ToR; highest level = spine.
  int level = 0;
  // Pod the switch belongs to, or -1 for switches above the pod layer
  // (spines). Builders fill this in; hand-built topologies may leave it.
  int pod = -1;
  std::string name;
  // Links whose `lower` endpoint is this switch (toward the spine).
  std::vector<LinkId> uplinks;
  // Links whose `upper` endpoint is this switch (toward the ToRs).
  std::vector<LinkId> downlinks;
};

// Structural description of one bidirectional link. Mutable link status
// (enabled/disabled) is NOT stored here: it lives in the topology's flat
// `enabled_mask()` bitset, indexed by link id, so state sweeps stream over
// one dense array instead of striding through this struct. Query it via
// Topology::is_enabled().
struct Link {
  LinkId id;
  // Endpoint at level l.
  SwitchId lower;
  // Endpoint at level l + 1.
  SwitchId upper;
  // Links sharing a breakout cable get the same non-negative group id;
  // -1 means the link has a dedicated cable. Shared-component faults
  // (root cause 5, Section 4) strike whole groups.
  int breakout_group = -1;
};

// Identifies one direction of a link. Direction ids are derived from link
// ids: up direction = 2 * link, down direction = 2 * link + 1.
enum class LinkDirection : std::uint8_t { kUp = 0, kDown = 1 };

[[nodiscard]] constexpr DirectionId direction_id(LinkId link,
                                                 LinkDirection dir) {
  return DirectionId(2 * link.value() +
                     (dir == LinkDirection::kDown ? 1 : 0));
}

[[nodiscard]] constexpr LinkId link_of(DirectionId dir) {
  return LinkId(dir.value() / 2);
}

[[nodiscard]] constexpr LinkDirection direction_of(DirectionId dir) {
  return dir.value() % 2 == 0 ? LinkDirection::kUp : LinkDirection::kDown;
}

[[nodiscard]] constexpr DirectionId opposite(DirectionId dir) {
  return DirectionId(dir.value() ^ 1u);
}

class Topology {
 public:
  // --- construction -------------------------------------------------
  SwitchId add_switch(int level, std::string name = {}, int pod = -1);
  // Endpoints must be on adjacent levels; `lower` one level below `upper`.
  LinkId add_link(SwitchId lower, SwitchId upper);
  // Assigns an explicit breakout group to one link (used when loading a
  // serialized topology); group must be >= -1.
  void set_breakout_group(LinkId id, int group);

  // Marks consecutive uplinks of the switches at `lower_level` as
  // sharing breakout cables, in bundles of `group_size` (e.g. pair up ToR
  // uplinks and bundle aggregation uplinks separately). Returns the
  // number of groups formed.
  int assign_breakout_groups(int group_size, int lower_level);

  // --- basic accessors ----------------------------------------------
  [[nodiscard]] std::size_t switch_count() const { return switches_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] std::size_t direction_count() const {
    return 2 * links_.size();
  }
  [[nodiscard]] const Switch& switch_at(SwitchId id) const;
  [[nodiscard]] const Link& link_at(LinkId id) const;
  [[nodiscard]] std::span<const Switch> switches() const { return switches_; }
  [[nodiscard]] std::span<const Link> links() const { return links_; }
  // Number of levels (top level index + 1); 0 for an empty topology.
  [[nodiscard]] int level_count() const { return level_count_; }
  [[nodiscard]] int top_level() const { return level_count_ - 1; }
  // All switches at a level, in id order.
  [[nodiscard]] const std::vector<SwitchId>& switches_at_level(
      int level) const;
  [[nodiscard]] const std::vector<SwitchId>& tors() const {
    return switches_at_level(0);
  }

  // --- link state ----------------------------------------------------
  [[nodiscard]] bool is_enabled(LinkId id) const {
    return enabled_mask_.test(id.index());
  }
  void set_enabled(LinkId id, bool enabled);
  // One bit per link, set iff enabled — the single source of truth for
  // administrative link status. Sweeps (optimizer feasibility, path
  // counting, capacity sampling) test state word-at-a-time here without
  // touching the structural Link array.
  [[nodiscard]] const common::DynamicBitset& enabled_mask() const {
    return enabled_mask_;
  }
  [[nodiscard]] std::size_t enabled_link_count() const {
    return enabled_links_;
  }
  // Monotonic counter bumped by every effective link-state change and
  // by every restore; the capacity sampler keys its last sample on it.
  // Path-count caches key on enabled_mask() instead.
  [[nodiscard]] std::uint64_t state_version() const { return version_; }

  // --- checkpointing (DESIGN.md §14) ---------------------------------
  // Serializes the dynamic link state, which is the enabled bitset
  // alone. Restore recounts the enabled links from it and advances the
  // state version (never rewinds it), so no version-keyed cache can
  // meet a version it saw under other link state. Structure (switches,
  // links, breakout groups) is not serialized: restore targets a
  // topology rebuilt by the same factory, guarded by the link count.
  void snapshot_to(common::snap::Writer& w) const;
  void restore_from(common::snap::Reader& r);

  // --- direction helpers ----------------------------------------------
  // Switch transmitting on this direction.
  [[nodiscard]] SwitchId transmitter(DirectionId dir) const;

  // Links in the same breakout group as `id` (including `id` itself);
  // just {id} for ungrouped links.
  [[nodiscard]] std::vector<LinkId> breakout_peers(LinkId id) const;

  // Sanity checks structural invariants (levels adjacent, endpoint link
  // lists consistent); aborts on violation. Builders call this once.
  void validate() const;

 private:
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c);

  std::vector<Switch> switches_;
  std::vector<Link> links_;
  common::DynamicBitset enabled_mask_;
  std::vector<std::vector<SwitchId>> by_level_;
  int level_count_ = 0;
  std::size_t enabled_links_ = 0;
  std::uint64_t version_ = 0;
  int next_breakout_group_ = 0;
};

}  // namespace corropt::topology
