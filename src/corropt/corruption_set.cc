#include "corropt/corruption_set.h"

#include <algorithm>
#include <cassert>

namespace corropt::core {

void CorruptionSet::mark(LinkId link, double loss_rate) {
  assert(loss_rate >= 0.0);
  ++epoch_;
  if (link.index() >= rate_of_.size()) rate_of_.resize(link.index() + 1, 0.0);
  rate_of_[link.index()] = loss_rate;
  const auto it = entries_.find(link);
  if (it != entries_.end()) {
    it->second.rate = loss_rate;
    return;
  }
  entries_.emplace(link, Entry{loss_rate, next_seq_++});
}

void CorruptionSet::unmark(LinkId link) {
  ++epoch_;
  if (link.index() < rate_of_.size()) rate_of_[link.index()] = 0.0;
  entries_.erase(link);
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

template <class Self, class Codec>
void CorruptionSet::walk(Self& self, Codec& c) {
  c.section(common::snap::tag('C', 'O', 'R', 'R'), 1, "corruption set");
  c.entries(self.entries_, [&c](auto& link, auto& entry) {
    c.id(link);
    c.f64(entry.rate);
    c.u64(entry.detected_seq);
  });
  c.u64(self.next_seq_);
  c.u64(self.epoch_);
  // The memoized total holds a raw pointer to the source context's
  // topology; never carry it across a restore.
  if constexpr (Codec::kReading) {
    self.rate_of_.assign(
        self.entries_.empty() ? 0 : self.entries_.rbegin()->first.index() + 1,
        0.0);
    for (const auto& [link, entry] : self.entries_) {
      self.rate_of_[link.index()] = entry.rate;
    }
    self.penalty_cache_ = PenaltyCache{};
  }
}

void CorruptionSet::snapshot_to(common::snap::Writer& w) const {
  walk(*this, w);
}
void CorruptionSet::restore_from(common::snap::Reader& r) { walk(*this, r); }

}  // namespace corropt::core
