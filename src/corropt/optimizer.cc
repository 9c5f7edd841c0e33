#include "corropt/optimizer.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/timer.h"

namespace corropt::core {

namespace {
constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();
}  // namespace

// Scratch for one segment solve. The segment's feasibility sweep is
// "compiled" once per solve: only switches whose path counts a candidate
// can change (an enabled uplink is a candidate, or leads to such a
// switch) are swept per subset; contributions of everything else are
// folded into per-switch baseline constants, and unaffected ToRs are
// checked once against the baseline. Per-subset work is then a single
// pass over flat edge arrays with zero allocation.
struct OptimizerSegmentScratch {
  struct Edge {
    // Baseline count of an unaffected upper endpoint (0 when affected).
    std::uint64_t base = 0;
    // Dense slot of an affected upper endpoint, or kNoSlot.
    std::uint32_t upper_slot = kNoSlot;
    // Candidate index of the uplink, or -1 for non-candidate links.
    std::int32_t cand = -1;
  };

  // Dense slot of each affected switch, kNoSlot elsewhere; between
  // solves only the previous `order`'s entries are set and only the
  // previous candidates' cand_of entries are >= 0, so a solve resets
  // just those.
  std::vector<std::uint32_t> slot_of;
  // Candidate lookup, indexed by link.
  std::vector<std::int32_t> cand_of;
  std::vector<std::uint32_t> cand_links;
  // Compiled region: affected switches in level-descending order.
  std::vector<std::uint32_t> order;       // switch index per slot
  std::vector<std::uint32_t> edge_offset;  // slot count + 1 entries
  std::vector<Edge> edges;
  std::vector<std::uint64_t> const_base;  // fixed contribution per slot
  std::vector<std::uint64_t> required;    // min paths per slot (0 off ToRs)
  std::vector<std::uint64_t> counts;      // sweep output per slot
  // Search state.
  std::vector<double> link_penalty;
  std::vector<char> full_selected;
  std::vector<std::uint32_t> survivors;
  std::vector<std::uint32_t> pos_bit;  // candidate -> survivor-position bit
  std::vector<double> suffix;
  std::vector<std::uint32_t> accept_cache;
  std::vector<std::uint32_t> reject_cache;
};

bool same_outcome(const OptimizerResult& a, const OptimizerResult& b) {
  return a.disabled == b.disabled && a.disabled_penalty == b.disabled_penalty &&
         a.remaining_penalty == b.remaining_penalty && a.exact == b.exact &&
         a.pruned_safe_disables == b.pruned_safe_disables &&
         a.segments == b.segments &&
         a.subsets_evaluated == b.subsets_evaluated &&
         a.cache_skips == b.cache_skips && a.accept_skips == b.accept_skips &&
         a.bound_skips == b.bound_skips;
}

namespace {

// Feasibility of one subset over the compiled region. `selected(c)`
// answers whether candidate index c is in the subset. Level-descending
// slot order guarantees every affected upper is computed before it is
// read; ToR slots carry their requirement, so infeasibility exits early.
template <typename SelectedFn>
bool region_feasible(OptimizerSegmentScratch& s, SelectedFn&& selected) {
  const std::size_t slots = s.order.size();
  for (std::size_t k = 0; k < slots; ++k) {
    std::uint64_t total = s.const_base[k];
    const std::uint32_t begin = s.edge_offset[k];
    const std::uint32_t end = s.edge_offset[k + 1];
    for (std::uint32_t e = begin; e < end; ++e) {
      const OptimizerSegmentScratch::Edge& edge = s.edges[e];
      if (edge.cand >= 0 && selected(edge.cand)) continue;
      total += edge.upper_slot != kNoSlot ? s.counts[edge.upper_slot]
                                          : edge.base;
    }
    if (total < s.required[k]) return false;
    s.counts[k] = total;
  }
  return true;
}

}  // namespace

Optimizer::Optimizer(topology::Topology& topo, PathCounter& paths,
                     const CapacityConstraint& constraint,
                     PenaltyFunction penalty, OptimizerConfig config)
    : topo_(&topo),
      constraint_(&constraint),
      penalty_(penalty),
      config_(config),
      paths_(&paths),
      scratch_(std::make_unique<OptimizerSegmentScratch>()) {
  assert(&paths.topo() == &topo);
  scratch_mask_.assign(topo.link_count());
}

Optimizer::~Optimizer() = default;

const std::vector<std::uint64_t>& Optimizer::sync_baseline() {
  const std::vector<std::uint64_t>& counts = paths_->live_counts();
  // Sweep positions of the lower endpoints of the links flipped since
  // the previous run, which include that run's own disables.
  const std::vector<std::uint32_t>& sweep_pos = paths_->index()->sweep_pos;
  std::vector<std::uint32_t>& lowers = flipped_lowers_;
  lowers.clear();
  const bool cold = !for_each_flip(
      seen_, topo_->enabled_mask().words(), [&](LinkId link) {
        lowers.push_back(sweep_pos[topo_->link_at(link).lower.index()]);
      });
  const bool constraint_moved = constraint_version_ != constraint_->version();
  if (!cold && lowers.empty() && !constraint_moved) return counts;
  if (cold || constraint_moved) {
    required_ = paths_->required_paths(*constraint_);
  }
  if (constraint_moved) {
    constraint_version_ = constraint_->version();
    segment_cache_.clear();
  }
  baseline_violated_.clear();
  for (SwitchId tor : topo_->tors()) {
    if (counts[tor.index()] < required_[tor.index()]) {
      baseline_violated_.push_back(tor);
    }
  }
  if (cold) {
    ++inc_stats_.baseline_full_recounts;
    return counts;
  }
  if (lowers.empty()) return counts;
  ++inc_stats_.baseline_delta_recounts;
  // A cached segment survives only while no link of its sweep region
  // differs from the mask it was solved under.
  std::erase_if(segment_cache_, [&lowers](const auto& item) {
    const common::DynamicBitset& region = item.second.region;
    return std::any_of(
        lowers.begin(), lowers.end(),
        [&region](std::uint32_t pos) { return region.test(pos); });
  });
  return counts;
}

void Optimizer::compile_region(SegmentView segment,
                               const common::DynamicBitset& region,
                               std::span<const std::uint64_t> baseline,
                               OptimizerSegmentScratch& s) const {
  const FabricIndex& fabric = *paths_->index();
  if (s.slot_of.size() != topo_->switch_count()) {
    s.slot_of.assign(topo_->switch_count(), kNoSlot);
    s.cand_of.assign(topo_->link_count(), -1);
    s.order.clear();
    s.cand_links.clear();
  }
  for (std::uint32_t sw : s.order) s.slot_of[sw] = kNoSlot;
  for (std::uint32_t link : s.cand_links) s.cand_of[link] = -1;
  s.cand_links.clear();
  for (std::size_t i = 0; i < segment.links.size(); ++i) {
    const auto link = static_cast<std::uint32_t>(segment.links[i].index());
    s.cand_of[link] = static_cast<std::int32_t>(i);
    s.cand_links.push_back(link);
  }

  // One pass over the region's switches in ascending sweep position
  // (level-descending) finds the affected ones and compiles their edges.
  // The region is upward-closed, so every upper endpoint of a region
  // switch was processed before the switch itself, and no link it reads
  // was a safe disable: the run's baseline counts hold for every
  // unaffected upper.
  s.order.clear();
  s.edge_offset.clear();
  s.edges.clear();
  s.const_base.clear();
  s.required.clear();
  const common::DynamicBitset& enabled = topo_->enabled_mask();
  const std::span<const common::DynamicBitset::Word> words = region.words();
  // Top-level switches (count 1, never affected) lead the sweep order.
  for (std::size_t w = fabric.top_count / 64; w < words.size(); ++w) {
    std::uint64_t bits = words[w];
    if (w == fabric.top_count / 64) {
      bits &= ~std::uint64_t{0} << (fabric.top_count % 64);
    }
    for (; bits != 0; bits &= bits - 1) {
      const std::uint32_t sw = fabric.order[
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
      const FabricIndex::UplinkSpan span = fabric.uplinks_of(sw);
      bool affected = false;
      for (std::size_t u = 0; u < span.count && !affected; ++u) {
        affected = enabled.test(span.link[u]) &&
                   (s.cand_of[span.link[u]] >= 0 ||
                    s.slot_of[span.upper[u]] != kNoSlot);
      }
      if (!affected) continue;
      s.slot_of[sw] = static_cast<std::uint32_t>(s.order.size());
      s.order.push_back(sw);
      s.edge_offset.push_back(static_cast<std::uint32_t>(s.edges.size()));
      std::uint64_t fixed = 0;
      for (std::size_t u = 0; u < span.count; ++u) {
        if (!enabled.test(span.link[u])) continue;
        const std::uint32_t upper = span.upper[u];
        const std::int32_t cand = s.cand_of[span.link[u]];
        const std::uint32_t upper_slot = s.slot_of[upper];
        if (cand < 0 && upper_slot == kNoSlot) {
          fixed += baseline[upper];
          continue;
        }
        OptimizerSegmentScratch::Edge edge;
        edge.cand = cand;
        if (upper_slot != kNoSlot) {
          edge.upper_slot = upper_slot;
        } else {
          edge.base = baseline[upper];
        }
        s.edges.push_back(edge);
      }
      s.const_base.push_back(fixed);
      s.required.push_back(required_[sw]);
    }
  }
  s.edge_offset.push_back(static_cast<std::uint32_t>(s.edges.size()));
  s.counts.assign(s.order.size(), 0);
}

OptimizerSegmentOutcome Optimizer::solve_segment(
    SegmentView segment, const common::DynamicBitset& region,
    std::span<const std::uint64_t> baseline, const CorruptionSet& corruption,
    OptimizerSegmentScratch& s) const {
  assert(!segment.links.empty());
  const std::size_t n = segment.links.size();
  OptimizerSegmentOutcome out;
  out.selected.assign(n, 0);

  compile_region(segment, region, baseline, s);

  // Disabling links never adds paths, so a ToR already below its
  // requirement at baseline dooms every subset: return the empty
  // solution without enumerating anything.
  for (SwitchId tor : segment.tors) {
    if (baseline[tor.index()] < required_[tor.index()]) return out;
  }

  s.link_penalty.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.link_penalty[i] = penalty_(corruption.rate(segment.links[i]));
  }

  // Greedy fallback for over-budget segments (no bitmask: segments can
  // be arbitrarily wide here). Exact segments fit the 32-bit subset masks.
  static_assert(kMaxExactSegment < 31);
  if (n > kMaxExactSegment) {
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (s.link_penalty[a] != s.link_penalty[b]) {
                  return s.link_penalty[a] > s.link_penalty[b];
                }
                return a < b;
              });
    for (std::uint32_t i : order) {
      out.selected[i] = 1;
      ++out.subsets_evaluated;
      if (!region_feasible(s, [&](std::int32_t c) {
            return out.selected[c] != 0;
          })) {
        out.selected[i] = 0;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (out.selected[i] != 0) out.penalty += s.link_penalty[i];
    }
    out.exact = false;
    CORROPT_LOG_WARNING << "optimizer: segment of " << n
                        << " links exceeded exact budget; greedy fallback";
    return out;
  }

  // Pre-filter: a candidate infeasible on its own can never be part of a
  // feasible subset (feasibility is monotone), so drop it outright.
  double best_penalty = 0.0;
  s.survivors.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (config_.prefilter_singletons) {
      ++out.subsets_evaluated;
      if (!region_feasible(s, [i](std::int32_t c) {
            return static_cast<std::size_t>(c) == i;
          })) {
        continue;
      }
      if (s.link_penalty[i] > best_penalty) {
        std::fill(out.selected.begin(), out.selected.end(), 0);
        out.selected[i] = 1;
        best_penalty = s.link_penalty[i];
      }
    }
    s.survivors.push_back(static_cast<std::uint32_t>(i));
  }
  if (s.survivors.empty()) {
    out.penalty = best_penalty;
    return out;
  }

  // Whole surviving set feasible? Most runs end here.
  s.full_selected.assign(n, 0);
  for (std::uint32_t i : s.survivors) s.full_selected[i] = 1;
  ++out.subsets_evaluated;
  if (region_feasible(s, [&](std::int32_t c) {
        return s.full_selected[c] != 0;
      })) {
    out.selected = s.full_selected;
    for (std::uint32_t i : s.survivors) out.penalty += s.link_penalty[i];
    return out;
  }

  // Branch-and-bound over survivor subsets: positions ordered by
  // descending penalty (ties by candidate index) so the include-first
  // DFS reaches high-value subsets early and the suffix-sum bound bites.
  // Masks fit in 32 bits: this path only runs for n <= 30.
  std::sort(s.survivors.begin(), s.survivors.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (s.link_penalty[a] != s.link_penalty[b]) {
                return s.link_penalty[a] > s.link_penalty[b];
              }
              return a < b;
            });
  const std::size_t m = s.survivors.size();
  s.pos_bit.assign(n, 0);
  s.suffix.assign(m + 1, 0.0);
  for (std::size_t j = m; j-- > 0;) {
    s.pos_bit[s.survivors[j]] = 1u << j;
    s.suffix[j] = s.suffix[j + 1] + s.link_penalty[s.survivors[j]];
  }

  s.accept_cache.clear();
  s.reject_cache.clear();
  if (config_.prefilter_singletons) {
    // Every survivor was just proven feasible alone.
    for (std::size_t j = 0; j < m; ++j) s.accept_cache.push_back(1u << j);
  }
  if (config_.use_reject_cache) {
    // The full survivor set was just swept infeasible.
    s.reject_cache.push_back(
        m >= 32 ? ~0u : (1u << m) - 1);
  }

  // Feasibility of one mask via the caches, sweeping only on a miss.
  auto evaluate = [&](std::uint32_t mask) -> bool {
    for (std::uint32_t entry : s.accept_cache) {
      if ((mask & ~entry) == 0) {
        ++out.accept_skips;
        return true;
      }
    }
    if (config_.use_reject_cache) {
      for (std::uint32_t entry : s.reject_cache) {
        if ((entry & ~mask) == 0) {
          ++out.cache_skips;
          return false;
        }
      }
    }
    ++out.subsets_evaluated;
    const bool ok = region_feasible(s, [&](std::int32_t c) {
      return (mask & s.pos_bit[c]) != 0;
    });
    if (ok) {
      s.accept_cache.push_back(mask);
    } else if (config_.use_reject_cache) {
      s.reject_cache.push_back(mask);
    }
    return ok;
  };

  std::uint32_t best_mask = 0;
  bool best_from_dfs = false;
  // `mask` is the committed prefix over positions [0, j); `feasible`
  // tells whether it satisfies the region (always true when the reject
  // side is on — infeasible prefixes are pruned by monotonicity; with it
  // off, infeasible subtrees are descended and swept node by node, which
  // is exactly the ablation's "no monotonicity exploitation" contract).
  auto dfs = [&](auto&& self, std::size_t j, std::uint32_t mask, double pen,
                 bool feasible) -> void {
    if (feasible && pen > best_penalty) {
      best_penalty = pen;
      best_mask = mask;
      best_from_dfs = true;
    }
    if (j == m) return;
    if (pen + s.suffix[j] <= best_penalty) {
      ++out.bound_skips;
      return;
    }
    const std::uint32_t bit = 1u << j;
    const double p = s.link_penalty[s.survivors[j]];
    const bool child_ok = feasible ? evaluate(mask | bit) : false;
    if (child_ok) {
      self(self, j + 1, mask | bit, pen + p, true);
    } else if (config_.use_reject_cache) {
      // Monotone prune: every superset of an infeasible set is
      // infeasible; the whole include-subtree dies here.
      if (feasible) ++out.cache_skips;
      // (!feasible is unreachable: infeasible prefixes are never
      // descended when the reject side is on.)
    } else {
      if (!feasible) {
        // Parent already infeasible, but without the reject side we may
        // not assume monotonicity: sweep the child like any other.
        evaluate(mask | bit);
      }
      self(self, j + 1, mask | bit, pen + p, false);
    }
    self(self, j + 1, mask, pen, feasible);
  };
  dfs(dfs, 0, 0u, 0.0, true);

  if (best_from_dfs) {
    std::fill(out.selected.begin(), out.selected.end(), 0);
    for (std::size_t j = 0; j < m; ++j) {
      if ((best_mask >> j) & 1u) out.selected[s.survivors[j]] = 1;
    }
  }
  out.penalty = best_penalty;
  return out;
}

void Optimizer::set_sink(obs::Sink* sink) {
  sink_ = sink;
  if (sink == nullptr || sink->metrics == nullptr) {
    obs_runs_ = obs::Counter();
    obs_disabled_ = obs::Counter();
    obs_pruned_ = obs::Counter();
    obs_segments_ = obs::Counter();
    obs_subsets_ = obs::Counter();
    obs_cache_skips_ = obs::Counter();
    obs_accept_skips_ = obs::Counter();
    obs_bound_skips_ = obs::Counter();
    obs_disabled_per_run_ = obs::Histogram();
    obs_run_timer_ = obs::Histogram();
    return;
  }
  obs::MetricsRegistry& metrics = *sink->metrics;
  obs_runs_ = metrics.counter("optimizer.runs");
  obs_disabled_ = metrics.counter("optimizer.links_disabled");
  obs_pruned_ = metrics.counter("optimizer.pruned_safe_disables");
  obs_segments_ = metrics.counter("optimizer.segments");
  obs_subsets_ = metrics.counter("optimizer.subsets_evaluated");
  obs_cache_skips_ = metrics.counter("optimizer.cache_skips");
  obs_accept_skips_ = metrics.counter("optimizer.accept_skips");
  obs_bound_skips_ = metrics.counter("optimizer.bound_skips");
  obs_disabled_per_run_ = metrics.histogram(
      "optimizer.disabled_per_run", {0, 1, 2, 5, 10, 25, 50, 100, 250});
  obs_run_timer_ = metrics.timer("optimizer.run_s");
}

OptimizerResult Optimizer::run(const CorruptionSet& corruption) {
  const obs::ScopedTimer timer(obs_run_timer_);
  OptimizerResult result = run_impl(corruption);
  // Recorded post-merge on the calling thread: deterministic for any
  // solver_threads (the timer above is wall clock and exempt).
  obs_runs_.add();
  obs_disabled_.add(result.disabled.size());
  obs_pruned_.add(result.pruned_safe_disables);
  obs_segments_.add(result.segments);
  obs_subsets_.add(result.subsets_evaluated);
  obs_cache_skips_.add(result.cache_skips);
  obs_accept_skips_.add(result.accept_skips);
  obs_bound_skips_.add(result.bound_skips);
  obs_disabled_per_run_.record(static_cast<double>(result.disabled.size()));
  return result;
}

OptimizerResult Optimizer::run_impl(const CorruptionSet& corruption) {
  ++inc_stats_.runs;
  OptimizerResult result;
  corruption.active(*topo_, candidates_);
  if (candidates_.empty()) return result;
  const std::vector<std::uint64_t>& baseline = sync_baseline();

  std::span<const SwitchId> endangered = topo_->tors();
  if (config_.use_pruning) {
    // Hypothetically disable everything and see which ToRs complain. The
    // recount runs in the live counts and undoes itself: only the
    // downward closure of the candidates can change.
    for (LinkId link : candidates_) scratch_mask_.set(link.index());
    paths_->masked_violated_tors(endangered_, baseline_violated_,
                                 scratch_mask_, candidates_, required_);
    for (LinkId link : candidates_) scratch_mask_.reset(link.index());
    endangered = endangered_;
    if (endangered.empty()) {
      // The full set is feasible: disable everything, which leaves
      // remaining_penalty 0. `candidates_` is the id-sorted active set,
      // so summing over it keeps the floating-point fold order fixed.
      for (LinkId link : candidates_) {
        result.disabled_penalty += penalty_(corruption.rate(link));
      }
      for (LinkId link : candidates_) topo_->set_enabled(link, false);
      result.disabled = candidates_;
      return result;
    }
  }

  // A candidate no segment holds is upstream of no endangered ToR, so it
  // is safe (ToRs outside `endangered` tolerate even the full set).
  std::span<const LinkId> safe;
  std::size_t segments = 0;
  if (config_.use_pruning || config_.use_segmentation) {
    segmenter_.split(*paths_, candidates_, endangered);
    segments = segmenter_.size();
    if (config_.use_pruning) safe = segmenter_.safe();
  }
  result.pruned_safe_disables = safe.size();
  if (!config_.use_segmentation) {
    // The ablation solves every contested candidate as one segment
    // against every endangered ToR.
    contested_.clear();
    std::set_difference(candidates_.begin(), candidates_.end(), safe.begin(),
                        safe.end(), std::back_inserter(contested_));
    segments = contested_.empty() ? 0 : 1;
  }
  const auto segment_at = [&](std::size_t i) {
    return config_.use_segmentation ? segmenter_.segment(i)
                                    : SegmentView{contested_, endangered};
  };
  result.segments = segments;

  // Safe links lie outside every segment's region, so disabling them
  // now changes neither the baseline counts a solve reads nor any
  // cached entry.
  for (LinkId link : safe) topo_->set_enabled(link, false);

  // Segment reuse: a cached outcome answers a segment outright when its
  // candidates, ToRs and rates are identical; sync_baseline already
  // erased every entry whose region flipped. The probe reads the
  // segment's views, so a hit copies nothing. A miss gets its entry now,
  // on the calling thread, with its region: the union of its ToRs'
  // upward closures.
  applied_.resize(segments);
  to_solve_.clear();
  for (std::size_t i = 0; i < segments; ++i) {
    const SegmentView segment = segment_at(i);
    const auto key = static_cast<std::uint32_t>(segment.links.front().index());
    const auto it = segment_cache_.find(key);
    bool hit = it != segment_cache_.end() &&
               std::ranges::equal(it->second.links, segment.links) &&
               std::ranges::equal(it->second.tors, segment.tors);
    for (std::size_t k = 0; hit && k < segment.links.size(); ++k) {
      hit = it->second.rates[k] == corruption.rate(segment.links[k]);
    }
    if (hit) {
      applied_[i] = &it->second;
      ++result.segment_reuses;
      continue;
    }
    CachedSegment& entry =
        it != segment_cache_.end() ? it->second : segment_cache_[key];
    entry.links.assign(segment.links.begin(), segment.links.end());
    entry.tors.assign(segment.tors.begin(), segment.tors.end());
    entry.rates.resize(segment.links.size());
    for (std::size_t k = 0; k < segment.links.size(); ++k) {
      entry.rates[k] = corruption.rate(segment.links[k]);
    }
    entry.region.assign(topo_->switch_count());
    for (SwitchId tor : segment.tors) entry.region |= paths_->tor_closure(tor);
    applied_[i] = &entry;
    to_solve_.push_back(i);
  }
  inc_stats_.segment_reuses += result.segment_reuses;
  inc_stats_.segment_solves += to_solve_.size();

  // Solve segments against the shared pre-segment state, each into its
  // own entry; candidates of one segment never enter another segment's
  // sweep region (segmentation would have merged them), so deferring the
  // set_enabled calls keeps this bit-identical to the serial schedule
  // for any thread count. The next sync finds this run's disables among
  // the flipped links and erases every entry whose region they touch,
  // including ones just stored that selected a link.
  const auto solve = [&](std::size_t j, OptimizerSegmentScratch& scratch) {
    CachedSegment& entry = *applied_[to_solve_[j]];
    entry.outcome = solve_segment(segment_at(to_solve_[j]), entry.region,
                                  baseline, corruption, scratch);
  };
  const std::size_t workers = std::min(
      std::max<std::size_t>(config_.solver_threads, 1), to_solve_.size());
  if (workers > 1) {
    common::ThreadPool pool(workers);
    common::parallel_for_each(pool, to_solve_.size(), [&](std::size_t j) {
      OptimizerSegmentScratch scratch;
      solve(j, scratch);
    });
  } else {
    for (std::size_t j = 0; j < to_solve_.size(); ++j) solve(j, *scratch_);
  }

  result.disabled.assign(safe.begin(), safe.end());
  for (std::size_t i = 0; i < segments; ++i) {
    const std::span<const LinkId> links = segment_at(i).links;
    const OptimizerSegmentOutcome& outcome = applied_[i]->outcome;
    result.exact = result.exact && outcome.exact;
    result.subsets_evaluated += outcome.subsets_evaluated;
    result.cache_skips += outcome.cache_skips;
    result.accept_skips += outcome.accept_skips;
    result.bound_skips += outcome.bound_skips;
    for (std::size_t k = 0; k < links.size(); ++k) {
      if (outcome.selected[k] != 0) {
        topo_->set_enabled(links[k], false);
        result.disabled.push_back(links[k]);
      }
    }
  }

  for (LinkId link : result.disabled) {
    result.disabled_penalty += penalty_(corruption.rate(link));
  }
  // Only this run disabled links, so the corrupting links still enabled
  // are the candidates still enabled: in id order, the set and the fold
  // order of total_active_penalty, bit for bit.
  for (LinkId link : candidates_) {
    if (topo_->is_enabled(link)) {
      result.remaining_penalty += penalty_(corruption.rate(link));
    }
  }
  return result;
}

}  // namespace corropt::core
