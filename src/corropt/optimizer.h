// CorrOpt's global optimizer (Section 5.1).
//
// When a repaired link is re-enabled, capacity frees up and previously
// undisableable corrupting links may become disableable. The optimizer
// solves the underlying NP-complete problem (Theorem 5.1) exactly on
// practical instances via a stack of reductions:
//
//   1. Pruning: treat all active corrupting links as disabled and find
//      the ToRs V whose constraints would be violated. Every corrupting
//      link not upstream of V is safe to disable outright (ToRs outside V
//      tolerate even the full set, and feasibility is monotone in the set
//      of enabled links). The recount runs in the live counts of the
//      controller's PathCounter, shared with the fast checker and keyed
//      on the enabled mask (DESIGN.md §12), and undoes itself from a log,
//      so it walks only the candidates' downward closure, copies no
//      counts and needs no change reports.
//   2. Segmentation (Section 8): the candidates split into independent
//      segments per the endangered ToRs they share, and a candidate no
//      segment holds is upstream of no ToR in V: that is pruning's safe
//      set. The split reads the per-ToR upward closures the PathCounter
//      keeps (switch bitsets indexed by sweep position, built once per
//      ToR since they depend only on the wiring), one AND per word, and
//      a Segmenter the optimizer keeps emits the segments as views into
//      arrays it reuses.
//      Every violation test compares counts against one per-ToR array
//      of required path counts, rebuilt only when the constraint moves.
//   3. Branch-and-bound per segment: candidates are ordered by descending
//      penalty and searched depth-first, include-before-exclude, so the
//      most valuable subsets are reached first. A suffix-sum upper bound
//      prunes branches that cannot beat the incumbent; feasibility
//      monotonicity is exploited both ways through a reject cache (any
//      superset of a known-infeasible subset is infeasible) and an accept
//      cache (any subset of a known-feasible subset is feasible).
//      Feasibility sweeps are allocation-free and touch only the switches
//      whose path counts the segment's candidates can actually change —
//      everything else is folded into per-switch baseline constants.
//      A segment's sweep region is the union of its ToRs' closures,
//      walked word by word in sweep order; its baselines are the run's
//      live counts, which the safe disables cannot touch (they lie
//      outside every region).
//
// A run solves its segments one after another on the calling thread and
// applies each segment's disables as soon as it is answered: a candidate
// of one segment is never inside another segment's sweep region (it
// would have been merged by segmentation), so no later solve reads them.
//
// Across runs the optimizer keeps per-segment solve outcomes (DESIGN.md
// §12), and there is no mode without them. A segment's views probe the
// cache before anything is copied and a hit's outcome is applied where
// it lies, so a run answered wholly from the cache that disables nothing
// allocates nothing. An outcome is erased as soon
// as a link of its sweep region flips (an XOR of the mask words of the
// previous run against the current mask, so the fast checker's disables
// count too). A reused outcome reports the search counters of the solve
// that produced it, which are exactly what a cold solve of the same
// inputs would count, so the cache is invisible in every result field
// but `segment_reuses`.
//
// The result maximizes the total disabled penalty, i.e. minimizes the
// residual penalty sum over links of (1 - d_l) * I(f_l), subject to every
// ToR keeping its required fraction of valley-free paths to the spine.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "common/ids.h"
#include "obs/sink.h"
#include "corropt/capacity.h"
#include "corropt/corruption_set.h"
#include "corropt/path_counter.h"
#include "corropt/penalty.h"
#include "corropt/segmentation.h"
#include "topology/topology.h"

namespace corropt::core {

// Segments of more candidates than this fall back to a greedy ordering
// (disable in decreasing penalty while feasible); the result is then
// flagged non-exact. Storm-scale fault rates reach it (segments of 25-37
// links in whatif_capacity_planner's defaults).
inline constexpr std::size_t kMaxExactSegment = 22;

struct OptimizerConfig {
  bool use_reject_cache = true;
  bool use_pruning = true;
  bool use_segmentation = true;

  // Ablation switch for benchmarks: when false, singleton-infeasible
  // candidates are not pre-filtered before enumeration.
  bool prefilter_singletons = true;

  // No effect: a run solves every segment on the calling thread.
  // Kept because perfbench's control_storm workload sets it.
  std::size_t solver_threads = 1;
};

struct OptimizerResult {
  // Links the optimizer disabled during this run.
  std::vector<LinkId> disabled;
  // Penalty of the links disabled by this run.
  double disabled_penalty = 0.0;
  // Penalty of corrupting links still enabled after this run.
  double remaining_penalty = 0.0;
  // False when any segment used the greedy fallback.
  bool exact = true;
  // Diagnostics.
  std::size_t pruned_safe_disables = 0;
  std::size_t segments = 0;
  // Subsets whose feasibility was established by an actual region sweep.
  std::size_t subsets_evaluated = 0;
  // Subsets (or whole subtrees, one count per pruning event) skipped via
  // infeasibility monotonicity: reject-cache hits plus branch prunes
  // under a subset just swept infeasible.
  std::size_t cache_skips = 0;
  // Subsets proven feasible by the accept cache without a sweep.
  std::size_t accept_skips = 0;
  // Branches cut by the penalty upper-bound test.
  std::size_t bound_skips = 0;
  // Segments answered from the segment cache without a solve. The only
  // field a cold solve of the same inputs may report differently.
  std::size_t segment_reuses = 0;
};

// True when two runs made the same decisions with the same search
// effort: every field equal except `segment_reuses`. The contract
// between the cached optimizer and a fresh one (verify_incremental).
[[nodiscard]] bool same_outcome(const OptimizerResult& a,
                                const OptimizerResult& b);

// Cumulative diagnostics of the cross-run caches (DESIGN.md §12).
// Purely observational: none of these influence decisions.
struct OptimizerIncrementalStats {
  std::size_t runs = 0;
  std::size_t segment_solves = 0;
  std::size_t segment_reuses = 0;
  // Runs that found no mask of a previous run to compare with (normally
  // only the first one) and runs that found links flipped since.
  std::size_t baseline_full_recounts = 0;
  std::size_t baseline_delta_recounts = 0;
  // Always 0: the baseline follows the enabled mask, so no change can go
  // unnoticed and force a cold rebuild. Kept because perfbench reads it.
  std::size_t cold_fallbacks = 0;
};

// Solve scratch and the compiled sweep region; defined in the .cc.
struct OptimizerSegmentScratch;

// What one segment solve decided and how hard it searched.
struct OptimizerSegmentOutcome {
  // selected[i] != 0 -> disable segment.links[i].
  std::vector<char> selected;
  double penalty = 0.0;
  bool exact = true;
  std::size_t subsets_evaluated = 0;
  std::size_t cache_skips = 0;
  std::size_t accept_skips = 0;
  std::size_t bound_skips = 0;
};

class Optimizer {
 public:
  // Disables links on `topo`; `paths` must count `topo`.
  Optimizer(topology::Topology& topo, PathCounter& paths,
            const CapacityConstraint& constraint, PenaltyFunction penalty,
            OptimizerConfig config = {});
  ~Optimizer();

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  // Globally optimizes over the active corrupting links, disabling the
  // optimal subset. Call whenever a link is (re-)enabled.
  OptimizerResult run(const CorruptionSet& corruption);

  // Attaches observability: every run() reports its OptimizerResult
  // counters to the registry and its wall time to the
  // "optimizer.run_s" timer (DESIGN.md §8). Pass nullptr to detach.
  void set_sink(obs::Sink* sink);

  [[nodiscard]] const OptimizerIncrementalStats& incremental_stats() const {
    return inc_stats_;
  }

 private:
  OptimizerResult run_impl(const CorruptionSet& corruption);

  // Exact branch-and-bound (or greedy, over-budget) search within one
  // segment. Reads link state, never writes it. The outcome, search
  // counters included, is a function of the segment, its candidates'
  // rates, the enabled state of its sweep region, the constraint and
  // the config alone.
  // `region` is the segment's sweep region and `baseline` the run's
  // live counts.
  OptimizerSegmentOutcome solve_segment(SegmentView segment,
                                        const common::DynamicBitset& region,
                                        std::span<const std::uint64_t> baseline,
                                        const CorruptionSet& corruption);

  // Compiles the affected switches of one segment's region into scratch_.
  void compile_region(SegmentView segment,
                      const common::DynamicBitset& region,
                      std::span<const std::uint64_t> baseline);

  topology::Topology* topo_;
  const CapacityConstraint* constraint_;
  PenaltyFunction penalty_;
  OptimizerConfig config_;
  PathCounter* paths_;
  // Scratch reused across runs, so a run whose segments all come from
  // the cache allocates nothing: the run's candidates, their bits for
  // the pruning pass (all clear between runs), the ToRs it endangers,
  // the segments, the ablation's one contested segment, the sweep
  // positions sync_baseline saw flip, and the solver's scratch.
  std::vector<LinkId> candidates_;
  common::DynamicBitset scratch_mask_;
  std::vector<SwitchId> endangered_;
  Segmenter segmenter_;
  std::vector<LinkId> contested_;
  std::vector<std::uint32_t> flipped_lowers_;
  std::unique_ptr<OptimizerSegmentScratch> scratch_;
  // Enabled-mask words of the previous run (empty before the first) and
  // the ToRs the live counts violated then, normally none.
  std::vector<std::uint64_t> seen_;
  std::vector<SwitchId> baseline_violated_;
  // paths_->required_paths(*constraint_) as of constraint_version_: the
  // minimum path count of each ToR, 0 off the ToRs. Every violation test
  // of a run compares integers against it; only sync_baseline writes it,
  // before any solve reads it.
  std::vector<std::uint64_t> required_;

  // --- Cross-run cache (DESIGN.md §12) ---
  // A solved segment kept across runs, reused verbatim while its
  // candidates, ToRs and rates are identical: a run probes the cache
  // with the segment's views before it copies anything, and applies a
  // hit's outcome where it lies; a miss solves into its entry.
  // `region` is the segment's sweep region, the union of its ToRs'
  // closures (switch bits indexed by sweep position): a solve reads the
  // enabled state of exactly the uplinks whose lower endpoint is in it,
  // so the entry is erased once such a link flips.
  struct CachedSegment {
    std::vector<LinkId> links;    // Segment candidates, id-sorted.
    std::vector<SwitchId> tors;   // Endangered ToRs of the segment.
    std::vector<double> rates;    // Corruption rate per candidate.
    common::DynamicBitset region;
    // The solve's selection, penalty and search counters, reported
    // again on every reuse.
    OptimizerSegmentOutcome outcome;
  };

  // Keyed by the segment's lowest candidate link id.
  std::unordered_map<std::uint32_t, CachedSegment> segment_cache_;
  // The constraint version the cache, baseline_violated_ and required_
  // were taken under; a per-ToR override changes what every solve
  // requires.
  std::uint64_t constraint_version_ = 0;
  OptimizerIncrementalStats inc_stats_;

  // Observability (all inert when sink_ is null).
  obs::Sink* sink_ = nullptr;
  obs::Counter obs_runs_;
  obs::Counter obs_disabled_;
  obs::Counter obs_pruned_;
  obs::Counter obs_segments_;
  obs::Counter obs_subsets_;
  obs::Counter obs_cache_skips_;
  obs::Counter obs_accept_skips_;
  obs::Counter obs_bound_skips_;
  obs::Histogram obs_disabled_per_run_;
  obs::Histogram obs_run_timer_;

  // Returns the live counts; when the mask moved since the previous run,
  // recomputes baseline_violated_ and erases the cached segments whose
  // region holds a flipped link. When the constraint moved it rebuilds
  // required_ and erases them all.
  const std::vector<std::uint64_t>& sync_baseline();
};

}  // namespace corropt::core
