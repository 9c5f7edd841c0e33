#include "corropt/corruption_set.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace corropt::core {

void CorruptionSet::mark(LinkId link, double loss_rate) {
  assert(loss_rate >= 0.0);
  if (link.index() >= rate_of_.size()) rate_of_.resize(link.index() + 1, 0.0);
  rate_of_[link.index()] = loss_rate;
  const auto [it, inserted] =
      entries_.try_emplace(link, Entry{loss_rate, next_seq_});
  if (!inserted) {
    it->second.rate = loss_rate;
    return;
  }
  ++next_seq_;
  marked_.insert(std::lower_bound(marked_.begin(), marked_.end(), link), link);
}

void CorruptionSet::unmark(LinkId link) {
  if (link.index() < rate_of_.size()) rate_of_[link.index()] = 0.0;
  if (entries_.erase(link) != 0) {
    marked_.erase(std::lower_bound(marked_.begin(), marked_.end(), link));
  }
}

void CorruptionSet::active(const topology::Topology& topo,
                           std::vector<LinkId>& out) const {
  out.clear();
  for (LinkId link : marked_) {
    if (topo.is_enabled(link)) out.push_back(link);
  }
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
  // Fold in link-id order, so a restored run and the fresh run it must
  // match byte for byte sum in the same order.
  double total = 0.0;
  for (LinkId link : marked_) {
    if (topo.is_enabled(link)) total += penalty(rate_of_[link.index()]);
  }
  return total;
}

template <class Self, class Codec>
void CorruptionSet::walk(Self& self, Codec& c, std::size_t link_count) {
  c.section(common::snap::tag('C', 'O', 'R', 'R'), 2, "corruption set");
  c.entries(self.entries_, [&c, link_count](auto& link, auto& entry) {
    c.id(link);
    // rate_of_ is sized by the highest link, and the detection poll
    // indexes per-link marks by every one.
    c.check(link.index() < link_count,
            "corruption set names a link past the fabric");
    c.f64(entry.rate);
    c.u64(entry.detected_seq);
  });
  c.u64(self.next_seq_);
  if constexpr (Codec::kReading) {
    self.marked_.clear();
    for (const auto& [link, entry] : self.entries_) {
      self.marked_.push_back(link);
    }
    self.rate_of_.assign(
        self.entries_.empty() ? 0 : self.entries_.rbegin()->first.index() + 1,
        0.0);
    for (const auto& [link, entry] : self.entries_) {
      self.rate_of_[link.index()] = entry.rate;
    }
  }
}

void CorruptionSet::snapshot_to(common::snap::Writer& w) const {
  walk(*this, w, SIZE_MAX);
}
void CorruptionSet::restore_from(common::snap::Reader& r,
                                 std::size_t link_count) {
  walk(*this, r, link_count);
}

}  // namespace corropt::core
