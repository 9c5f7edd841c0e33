#include "corropt/corruption_set.h"

#include <algorithm>
#include <cassert>

namespace corropt::core {

void CorruptionSet::mark(LinkId link, double loss_rate) {
  assert(loss_rate >= 0.0);
  ++epoch_;
  const auto it = entries_.find(link);
  if (it != entries_.end()) {
    it->second.rate = loss_rate;
    return;
  }
  entries_.emplace(link, Entry{loss_rate, next_seq_++});
}

void CorruptionSet::unmark(LinkId link) {
  ++epoch_;
  entries_.erase(link);
}

double CorruptionSet::rate(LinkId link) const {
  const auto it = entries_.find(link);
  return it == entries_.end() ? 0.0 : it->second.rate;
}

std::vector<LinkId> CorruptionSet::active(
    const topology::Topology& topo) const {
  std::vector<LinkId> out;
  out.reserve(entries_.size());
  for (const auto& [link, entry] : entries_) {
    if (topo.is_enabled(link)) out.push_back(link);
  }
  return out;
}

std::vector<LinkId> CorruptionSet::active_in_detection_order(
    const topology::Topology& topo) const {
  std::vector<std::pair<std::uint64_t, LinkId>> ordered;
  ordered.reserve(entries_.size());
  for (const auto& [link, entry] : entries_) {
    if (topo.is_enabled(link)) ordered.emplace_back(entry.detected_seq, link);
  }
  std::sort(ordered.begin(), ordered.end());
  std::vector<LinkId> out;
  out.reserve(ordered.size());
  for (const auto& [seq, link] : ordered) out.push_back(link);
  return out;
}

double CorruptionSet::total_active_penalty(
    const topology::Topology& topo, const PenaltyFunction& penalty) const {
  if (penalty_cache_.valid && penalty_cache_.topo == &topo &&
      penalty_cache_.topo_version == topo.state_version() &&
      penalty_cache_.epoch == epoch_ && penalty_cache_.penalty == penalty) {
    return penalty_cache_.value;
  }
  // Fold in link-id order (the map's), so a restored run and the fresh
  // run it must match byte for byte sum in the same order.
  double total = 0.0;
  for (const auto& [link, entry] : entries_) {
    if (topo.is_enabled(link)) total += penalty(entry.rate);
  }
  penalty_cache_ = PenaltyCache{true, &topo, topo.state_version(), epoch_,
                                penalty, total};
  return total;
}

void CorruptionSet::snapshot_to(common::snap::Writer& w) const {
  w.section(common::snap::tag('C', 'O', 'R', 'R'), 1);
  w.u64(entries_.size());
  for (const auto& [link, entry] : entries_) {
    w.u32(link.value());
    w.f64(entry.rate);
    w.u64(entry.detected_seq);
  }
  w.u64(next_seq_);
  w.u64(epoch_);
}

void CorruptionSet::restore_from(common::snap::Reader& r) {
  r.expect_section(common::snap::tag('C', 'O', 'R', 'R'));
  entries_.clear();
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const LinkId link(r.u32());
    Entry entry;
    entry.rate = r.f64();
    entry.detected_seq = r.u64();
    entries_.emplace(link, entry);
  }
  next_seq_ = r.u64();
  epoch_ = r.u64();
  // The memoized total holds a raw pointer to the source context's
  // topology; never carry it across a restore.
  penalty_cache_ = PenaltyCache{};
}

}  // namespace corropt::core
