// Parallel scenario sweeps with structured metrics output.
//
// A sweep bench describes each (topology, trace, config) scenario as a
// ScenarioJob; the ScenarioRunner executes the jobs across a
// common::ThreadPool and returns results in submission order. Every job
// builds its own topology instance and derives all randomness from its
// own seeds, so a sweep's metrics are bit-identical whether it runs on
// one thread or sixteen — see DESIGN.md, "Determinism contract of the
// scenario runner".
//
// Results additionally serialize to BENCH_<exhibit>.json (schema
// documented in EXPERIMENTS.md) so plotting and regression tooling no
// longer has to grep "csv," rows out of stdout.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/thread_pool.h"
#include "sim/scenario.h"
#include "trace/trace.h"

namespace corropt::bench {

// One sweep scenario: a sim::Scenario (name, topology factory, trace
// recipe, config, collect_obs) plus the tags it serializes under. Every
// job derives all randomness from its own seeds.
struct ScenarioJob : sim::Scenario {
  // Machine-readable dimensions of this scenario (dcn, mode, constraint,
  // ...); serialized into the JSON output for downstream grouping.
  std::vector<std::pair<std::string, std::string>> tags;
};

struct ScenarioResult : sim::ScenarioRun {
  std::vector<std::pair<std::string, std::string>> tags;
};

// Describes the shared prefix of a branched sweep (run_branched below).
struct BranchedSweep {
  // Index of the job whose configuration runs the shared prefix. Any
  // job works when the sweep's variable is prefix-inert; by convention
  // the first.
  std::size_t base = 0;
  // Builds the stop predicate once the shared trace is known — the
  // prefix-inert boundary usually depends on the first fault onset.
  // Returning an always-true predicate checkpoints at the begin_run
  // boundary (step 0).
  std::function<sim::StopPredicate(const std::vector<trace::TraceEvent>&)>
      make_stop;
};

class ScenarioRunner {
 public:
  // Workers are spawned once and reused across run() calls.
  explicit ScenarioRunner(std::size_t threads);

  [[nodiscard]] std::size_t thread_count() const {
    return pool_.thread_count();
  }

  // Runs all jobs and returns their results in job order. A job that
  // throws aborts the sweep with that exception once every in-flight job
  // has finished.
  [[nodiscard]] std::vector<ScenarioResult> run(
      const std::vector<ScenarioJob>& jobs);

  // Shared-prefix variant of run() (DESIGN.md §14): the base job's
  // scenario is executed once up to the boundary where `sweep.stop`
  // first fires, frozen as a sim::Checkpoint, and every job then forks
  // from that checkpoint instead of replaying the prefix itself.
  //
  // Contract: all jobs must share the base job's topology factory
  // output, trace parameters and trace seed, and their configurations
  // must be behaviorally identical up to the checkpoint boundary (the
  // sweep's variable — crew bound, detection backend, checker mode —
  // must be prefix-inert there). Under that contract the results are
  // byte-identical to run(): metrics, journal and registry all follow
  // the branch equivalence contract. When the stop predicate never
  // fires before the horizon, falls back to run().
  [[nodiscard]] std::vector<ScenarioResult> run_branched(
      const std::vector<ScenarioJob>& jobs, const BranchedSweep& sweep);

  // Generic fan-out on the runner's pool: invokes make(0) .. make(count
  // - 1) across the workers and returns the results in index order.
  // Lets non-simulation sweeps — e.g. the measurement-study benches
  // constructing one study per DCN — run as independent jobs under the
  // same pool and determinism conventions as run().
  template <typename F>
  [[nodiscard]] auto map(std::size_t count, F&& make)
      -> std::vector<std::invoke_result_t<F&, std::size_t>> {
    using R = std::invoke_result_t<F&, std::size_t>;
    std::vector<std::optional<R>> slots(count);
    common::parallel_for_each(pool_, count,
                              [&](std::size_t i) { slots[i].emplace(make(i)); });
    std::vector<R> results;
    results.reserve(count);
    for (std::optional<R>& slot : slots) {
      results.push_back(std::move(*slot));
    }
    return results;
  }

  // The underlying pool, for work that shards below job granularity
  // (MeasurementStudy::run_many tiles). Submitting from inside a job is
  // a deadlock risk — the pool has no work stealing; fan out from the
  // caller instead.
  [[nodiscard]] common::ThreadPool& pool() { return pool_; }

 private:
  common::ThreadPool pool_;
};

// Runs one job synchronously on the calling thread (also used by the
// runner's workers): sim::run_scenario, tags attached.
[[nodiscard]] ScenarioResult run_job(const ScenarioJob& job);

// Splitmix64-derived per-job seed stream: unrelated seeds for nearby
// indices, stable across thread counts and reorderings. Sweeps that
// enumerate many scenarios from one base seed should derive each job's
// trace/sim seeds as derive_seed(base, job_index) rather than base + i.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base,
                                        std::uint64_t index);

// Default worker-thread count of a bench without --threads:
// std::thread::hardware_concurrency(), at least 1.
[[nodiscard]] std::size_t configured_thread_count();

struct MetricsJsonOptions {
  // Emit the one-hour penalty integral bins (Figure 18's raw input).
  bool include_hourly_penalty = false;
  // Emit the sampled worst-ToR path fraction and disabled-link series
  // (Figures 15/16's raw input).
  bool include_tor_series = false;
};

// Every BENCH_/OBS_ file a bench writes goes through here: opens `path`,
// hands the stream to `body`, which writes the document and returns how
// many `items` it holds, closes the file and prints the one
// "wrote <path> (<count> <items>)" line. A failed open or write, the
// final flush included, prints one stderr line naming the file and
// exits 1, so a bench never reports a file it did not write.
void write_output(const std::string& path, std::string_view items,
                  const std::function<std::size_t(std::ostream&)>& body);

// Writes `results` to `path` as a corropt-bench-metrics/1 JSON document
// (see EXPERIMENTS.md for the schema). `exhibit` is the short exhibit id
// ("fig17"), `generator` the producing binary's name, `threads` the pool
// size used (0 leaves it out of the envelope).
void write_metrics_json(const std::string& path, const std::string& exhibit,
                        const std::string& generator, std::size_t threads,
                        const std::vector<ScenarioResult>& results,
                        const MetricsJsonOptions& options = {});

// Writes the concatenated journals of `runs` as JSONL, one event per
// line tagged with its run's name, runs in the given order. Fully
// deterministic for any worker count. Runs without an obs capture are
// skipped.
void write_obs_jsonl(const std::string& path,
                     const std::vector<const sim::ScenarioRun*>& runs);

// Writes the runs' metric snapshots as one corropt-obs-metrics/1
// document with a scenarios[] section per run. `include_timers` adds the
// wall-clock timer histograms (excluded from determinism comparisons).
void write_obs_metrics_json(const std::string& path,
                            const std::string& exhibit,
                            const std::string& generator, std::size_t threads,
                            const std::vector<const sim::ScenarioRun*>& runs,
                            bool include_timers = true);

}  // namespace corropt::bench
