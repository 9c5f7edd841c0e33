#include "corropt/segmentation.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

namespace corropt::core {

namespace {

constexpr std::uint32_t kEnd = std::numeric_limits<std::uint32_t>::max();

// Turns per-segment counts held at offsets[s + 2] into cursors:
// offsets[s + 1] becomes segment s's start, and placing an item with
// offsets[s + 1]++ leaves offsets[s] = start of segment s once every
// item is placed, with one surplus entry to pop.
void counts_to_cursors(std::vector<std::uint32_t>& offsets) {
  for (std::size_t k = 2; k < offsets.size(); ++k) {
    offsets[k] += offsets[k - 1];
  }
}

}  // namespace

std::uint32_t Segmenter::find(std::uint32_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

void Segmenter::split(PathCounter& paths, std::span<const LinkId> candidates,
                      std::span<const SwitchId> endangered_tors) {
  seg_links_.clear();
  seg_tors_.clear();
  link_offset_.assign(1, 0);
  tor_offset_.assign(1, 0);
  // Candidates in id order; union-find runs over their dense indices.
  links_.assign(candidates.begin(), candidates.end());
  std::sort(links_.begin(), links_.end());
  if (endangered_tors.empty()) {
    safe_.assign(links_.begin(), links_.end());
    return;
  }
  safe_.clear();
  if (links_.empty()) return;
  const FabricIndex& ix = *paths.index();
  const std::size_t n = links_.size();

  // The candidates' lower endpoints as bits over sweep positions, and
  // per position a chain of the candidates sharing it: head_[pos] is the
  // lowest index, next_[i] the one after i. [lo, hi] is the range of
  // words with a bit.
  const std::size_t words = (ix.order.size() + 63) / 64;
  if (lowers_.size() != words) lowers_.assign(words, 0);
  if (head_.size() < ix.order.size()) head_.resize(ix.order.size());
  next_.resize(n);
  std::size_t lo = words;
  std::size_t hi = 0;
  for (std::size_t i = n; i-- > 0;) {
    const std::uint32_t pos =
        ix.sweep_pos[paths.topo().link_at(links_[i]).lower.index()];
    const std::uint64_t bit = std::uint64_t{1} << (pos % 64);
    next_[i] = (lowers_[pos / 64] & bit) != 0 ? head_[pos] : kEnd;
    head_[pos] = static_cast<std::uint32_t>(i);
    lowers_[pos / 64] |= bit;
    lo = std::min<std::size_t>(lo, pos / 64);
    hi = std::max<std::size_t>(hi, pos / 64);
  }

  // A candidate is upstream of a ToR iff the ToR's closure holds its
  // lower endpoint: AND the closure with `lowers_` over [lo, hi] and
  // unite every hit with the ToR's first one.
  parent_.resize(n);
  std::iota(parent_.begin(), parent_.end(), 0u);
  first_.assign(endangered_tors.size(), kEnd);
  for (std::size_t t = 0; t < endangered_tors.size(); ++t) {
    const std::span<const common::DynamicBitset::Word> upstream =
        paths.tor_closure(endangered_tors[t]).words();
    for (std::size_t w = lo; w <= hi; ++w) {
      for (std::uint64_t hits = upstream[w] & lowers_[w]; hits != 0;
           hits &= hits - 1) {
        const std::size_t pos =
            w * 64 + static_cast<std::size_t>(std::countr_zero(hits));
        for (std::uint32_t i = head_[pos]; i != kEnd; i = next_[i]) {
          if (first_[t] == kEnd) {
            first_[t] = i;
          } else {
            parent_[find(first_[t])] = find(i);
          }
        }
      }
    }
  }
  std::fill(lowers_.begin() + static_cast<std::ptrdiff_t>(lo),
            lowers_.begin() + static_cast<std::ptrdiff_t>(hi) + 1, 0);

  // Number the segments by union-find root in the order of their first
  // ToR; first_[t] becomes the ToR's segment. Links upstream of no
  // endangered ToR stay unmerged singletons whose root no ToR reaches:
  // those are the safe ones. next_[i] becomes link i's segment.
  // Each offset array first counts segment s's items at [s + 2].
  segment_of_.assign(n, kEnd);
  link_offset_.push_back(0);
  tor_offset_.push_back(0);
  for (std::uint32_t& seg : first_) {
    if (seg == kEnd) continue;
    std::uint32_t& numbered = segment_of_[find(seg)];
    if (numbered == kEnd) {
      numbered = static_cast<std::uint32_t>(link_offset_.size() - 2);
      link_offset_.push_back(0);
      tor_offset_.push_back(0);
    }
    seg = numbered;
    ++tor_offset_[seg + 2];
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    next_[i] = segment_of_[find(i)];
    if (next_[i] == kEnd) {
      safe_.push_back(links_[i]);
    } else {
      ++link_offset_[next_[i] + 2];
    }
  }
  counts_to_cursors(link_offset_);
  counts_to_cursors(tor_offset_);
  seg_links_.resize(n - safe_.size());
  seg_tors_.resize(tor_offset_.back());
  for (std::size_t t = 0; t < endangered_tors.size(); ++t) {
    if (first_[t] != kEnd) {
      seg_tors_[tor_offset_[first_[t] + 1]++] = endangered_tors[t];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (next_[i] != kEnd) seg_links_[link_offset_[next_[i] + 1]++] = links_[i];
  }
  link_offset_.pop_back();
  tor_offset_.pop_back();
}

}  // namespace corropt::core
