// Appendix A: the NP-hardness reduction, exercised end to end. Random
// 3-SAT instances are compiled into the Lemma A.1 fat-tree gadget; the
// optimizer can disable one corrupting link per variable iff the formula
// is satisfiable. The timing table shows the exponential growth in
// subsets explored as variables are added — the practical face of
// Theorem 5.1 — and how the reject cache tames it. Trials run as
// independent jobs on the ScenarioRunner pool (--threads), each drawing
// its instance from its own derived seed stream so results are
// identical for any thread count; aggregates land in
// BENCH_appendixA.json alongside the csv rows.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "corropt/optimizer.h"
#include "corropt/sat_gadget.h"
#include "study_util.h"

namespace {

using namespace corropt;

constexpr int kTrials = 5;
constexpr std::uint64_t kSeedBase = 2017;

core::SatInstance random_instance(int vars, int clauses, common::Rng& rng) {
  core::SatInstance instance;
  instance.num_vars = vars;
  for (int i = 0; i < clauses; ++i) {
    core::SatClause clause{};
    for (int j = 0; j < 3; ++j) {
      const int var = 1 + static_cast<int>(rng.uniform_index(vars));
      clause.literals[static_cast<std::size_t>(j)] =
          rng.bernoulli(0.5) ? var : -var;
    }
    instance.clauses.push_back(clause);
  }
  return instance;
}

struct TrialOutcome {
  bool satisfiable = false;
  bool agrees = false;
  std::size_t subsets = 0;
  std::size_t cache_skips = 0;
  double ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header("Appendix A",
                      "Deciding 3-SAT with the link-disabling optimizer on "
                      "the Lemma A.1 gadget");

  // --quick stops before the widest gadgets; the exponential trend is
  // visible from three points.
  const int max_vars = args.quick ? 7 : 11;
  std::vector<int> var_counts;
  for (int vars = 3; vars <= max_vars; vars += 2) var_counts.push_back(vars);

  // One job per (variable count, trial): each draws its 3-SAT instance
  // from derive_seed(2017, flat index), so trial outcomes do not depend
  // on scheduling or on --quick truncating the sweep.
  bench::ScenarioRunner runner(args.threads);
  const std::vector<TrialOutcome> outcomes = runner.map(
      var_counts.size() * kTrials, [&](std::size_t index) {
        const int vars = var_counts[index / kTrials];
        const int clauses = vars * 4;  // Near the hard ratio ~4.2.
        common::Rng rng(bench::derive_seed(kSeedBase, index));
        const core::SatInstance instance =
            random_instance(vars, clauses, rng);

        TrialOutcome outcome;
        outcome.satisfiable = core::solve_sat_brute_force(instance);
        core::SatGadget gadget = core::build_sat_gadget(instance);
        core::CorruptionSet corruption;
        for (common::LinkId link : gadget.corrupting) {
          corruption.mark(link, 1e-3);
        }
        core::PathCounter paths(gadget.topo);
        core::Optimizer optimizer(gadget.topo, paths, gadget.connectivity,
                                  core::PenaltyFunction::linear());
        const auto start = std::chrono::steady_clock::now();
        const core::OptimizerResult result = optimizer.run(corruption);
        outcome.ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
        outcome.subsets = result.subsets_evaluated;
        outcome.cache_skips = result.cache_skips;
        outcome.agrees =
            (result.disabled.size() == static_cast<std::size_t>(vars)) ==
            outcome.satisfiable;
        return outcome;
      });

  std::vector<bench::StudyScenario> rows;
  std::printf("%6s %9s %8s %8s %12s %12s %10s\n", "vars", "clauses", "sat?",
              "agree", "subsets", "cache skips", "time (ms)");
  for (std::size_t v = 0; v < var_counts.size(); ++v) {
    const int vars = var_counts[v];
    const int clauses = vars * 4;
    int sat_count = 0, agreements = 0;
    std::size_t subsets = 0, skips = 0;
    double ms = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const TrialOutcome& outcome = outcomes[v * kTrials +
                                             static_cast<std::size_t>(trial)];
      sat_count += outcome.satisfiable;
      agreements += outcome.agrees;
      subsets += outcome.subsets;
      skips += outcome.cache_skips;
      ms += outcome.ms;
    }
    std::printf("%6d %9d %5d/%-3d %5d/%-3d %12zu %12zu %10.2f\n", vars,
                clauses, sat_count, kTrials, agreements, kTrials,
                subsets / static_cast<std::size_t>(kTrials),
                skips / static_cast<std::size_t>(kTrials), ms / kTrials);
    std::printf("csv,appendixA,%d,%d,%zu,%.3f\n", vars, clauses,
                subsets / static_cast<std::size_t>(kTrials), ms / kTrials);
    bench::StudyScenario row;
    row.name = "vars_" + std::to_string(vars);
    row.metrics = {
        {"vars", static_cast<double>(vars)},
        {"clauses", static_cast<double>(clauses)},
        {"satisfiable", static_cast<double>(sat_count)},
        {"agreements", static_cast<double>(agreements)},
        {"trials", static_cast<double>(kTrials)},
        {"mean_subsets",
         static_cast<double>(subsets / static_cast<std::size_t>(kTrials))},
        {"mean_cache_skips",
         static_cast<double>(skips / static_cast<std::size_t>(kTrials))},
        {"mean_ms", ms / kTrials},
    };
    rows.push_back(std::move(row));
  }
  std::printf(
      "\nsubsets explored grow exponentially with the variable count\n"
      "(Theorem 5.1); the reject cache prunes supersets of minimal\n"
      "infeasible sets, which is why practical instances stay tractable\n"
      "(Section 5.1).\n");
  bench::write_study_metrics_json(args.json_path("appendixA"), "appendixA",
                                  "bench_appendixA_hardness", args.threads,
                                  rows);
  return 0;
}
