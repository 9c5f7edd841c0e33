// Runtime characterization of the sharded measurement-study engine
// (DESIGN.md §9). Two modes:
//
//   default       — runs the Figure 1 workload (15 DCNs, 21 days of
//                   hourly epochs) at 1/2/4/8 threads, checks that every
//                   thread count produces the identical result, and
//                   measures the loss-capable fast path against a full
//                   fabric scan of the same workload.
//   --paper-scale — one paper-sized study (k=90 fat-tree, ~365K links,
//                   210 days of 15-minute epochs) at --threads workers.
//
// Exits nonzero if any two configurations disagree on the synthesized
// result; the timings land in BENCH_runtime_study.json.

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/measurement_study.h"
#include "analysis/study_accumulators.h"
#include "bench_util.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "study_util.h"
#include "topology/fat_tree.h"

namespace {

using namespace corropt;

// DailyDropTotalsAccumulator stripped of its kLossCapableOnly trait:
// identical tallies, but the engine must synthesize every direction of
// the fabric. The lossy-only digest must match this one exactly — that
// is the fast path's soundness claim, checked here on every run.
struct FullScanDaily {
  analysis::DailyDropTotalsAccumulator inner;
  explicit FullScanDaily(int days) : inner(days) {}
  using Partial = analysis::DailyDropTotalsAccumulator::Partial;
  [[nodiscard]] Partial make_partial() const { return inner.make_partial(); }
  void merge(Partial& p) { inner.merge(p); }
};

template <typename F>
double wall_seconds(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t digest(const analysis::DailyDropTotalsAccumulator& acc) {
  std::uint64_t h = common::kFnvBasis;
  for (std::uint64_t v : acc.corruption_per_day()) h = common::fnv1a(h, v);
  for (std::uint64_t v : acc.congestion_per_day()) h = common::fnv1a(h, v);
  return h;
}

struct Dcn {
  std::unique_ptr<topology::Topology> topo;
  std::unique_ptr<analysis::MeasurementStudy> study;
};

// The Figure 1 fleet: same topologies, seeds, and study parameters as
// bench_fig01_extent, so the timings here describe the exhibit bench.
std::vector<Dcn> build_fig01_fleet(const bench::BenchArgs& args, int days,
                                   obs::Sink* sink) {
  const std::array<int, 15> dcn_k = {16, 16, 18, 18, 20, 20, 22, 22,
                                     24, 24, 26, 26, 28, 30, 32};
  bench::ScenarioRunner runner(args.threads);
  return runner.map(dcn_k.size(), [&](std::size_t d) {
    Dcn dcn;
    dcn.topo = std::make_unique<topology::Topology>(
        topology::build_fat_tree(dcn_k[d]));
    analysis::StudyConfig config;
    config.days = days;
    config.epoch = common::kHour;
    config.corrupting_link_fraction = 0.004;
    config.seed = 1000 + d;
    config.sink = sink;
    dcn.study =
        std::make_unique<analysis::MeasurementStudy>(*dcn.topo, config);
    return dcn;
  });
}

int run_fig01_sweep(const bench::BenchArgs& args, obs::Sink* sink) {
  const int days = bench::days_or(args, 21);
  const std::vector<Dcn> dcns = build_fig01_fleet(args, days, sink);
  std::vector<const analysis::MeasurementStudy*> studies;
  std::size_t directions = 0, lossy = 0;
  for (const Dcn& dcn : dcns) {
    studies.push_back(dcn.study.get());
    directions += dcn.topo->direction_count();
    lossy += dcn.study->loss_capable_directions();
  }
  const auto epochs =
      static_cast<std::size_t>(days * (common::kDay / common::kHour));

  std::vector<bench::StudyScenario> rows;
  std::printf("fig01 workload: %zu studies, %zu directions (%zu "
              "loss-capable), %zu epochs\n\n",
              studies.size(), directions, lossy, epochs);
  std::printf("%10s %14s %18s %18s\n", "threads", "wall (s)",
              "speedup vs 1t", "digest");

  const std::array<std::size_t, 4> thread_counts = {1, 2, 4, 8};
  double wall_1t = 0.0, wall_best = 0.0;
  std::uint64_t reference = 0;
  bool digests_equal = true;
  for (std::size_t t : thread_counts) {
    common::ThreadPool pool(t);
    std::vector<analysis::DailyDropTotalsAccumulator> accs(
        studies.size(), analysis::DailyDropTotalsAccumulator(days));
    const double wall = wall_seconds([&] {
      analysis::MeasurementStudy::run_many<
          analysis::DailyDropTotalsAccumulator>(studies, accs, &pool);
    });
    std::uint64_t h = common::kFnvBasis;
    for (const auto& acc : accs) h = common::fnv1a(h, digest(acc));
    if (t == 1) {
      wall_1t = wall;
      reference = h;
    }
    wall_best = wall;
    if (h != reference) digests_equal = false;
    std::printf("%10zu %14.3f %18.2f %18llx\n", t, wall, wall_1t / wall,
                static_cast<unsigned long long>(h));
    std::printf("csv,runtime_study,%zu,%.4f\n", t, wall);
    rows.push_back({"threads_" + std::to_string(t),
                    {{"threads", static_cast<double>(t)},
                     {"wall_seconds", wall},
                     {"speedup_vs_1thread", wall_1t / wall},
                     {"digest_matches_1thread", h == reference ? 1.0 : 0.0}}});
  }

  // Full fabric scan at the top thread count: what the sweep would cost
  // without the loss-capable subset.
  common::ThreadPool pool(thread_counts.back());
  std::vector<FullScanDaily> full(studies.size(), FullScanDaily(days));
  const double wall_full = wall_seconds([&] {
    analysis::MeasurementStudy::run_many<FullScanDaily>(studies, {full},
                                                        &pool);
  });
  std::uint64_t h_full = common::kFnvBasis;
  for (const FullScanDaily& f : full) {
    h_full = common::fnv1a(h_full, digest(f.inner));
  }
  if (h_full != reference) digests_equal = false;
  std::printf("%10s %14.3f %18s %18llx\n", "full-scan", wall_full, "-",
              static_cast<unsigned long long>(h_full));
  rows.push_back(
      {"full_scan",
       {{"threads", static_cast<double>(thread_counts.back())},
        {"wall_seconds", wall_full},
        {"digest_matches_1thread", h_full == reference ? 1.0 : 0.0}}});
  rows.push_back(
      {"summary",
       {{"directions", static_cast<double>(directions)},
        {"lossy_directions", static_cast<double>(lossy)},
        {"epochs", static_cast<double>(epochs)},
        {"speedup_8t_vs_1t", wall_1t / wall_best},
        {"speedup_vs_full_scan", wall_full / wall_best},
        {"samples_per_second",
         static_cast<double>(lossy * epochs) / wall_best},
        {"digests_equal", digests_equal ? 1.0 : 0.0}}});
  bench::write_study_metrics_json(args.json_path("runtime_study"),
                                  "runtime_study", "bench_runtime_study",
                                  args.threads, rows);
  std::printf("\nspeedup vs full fabric scan: %.2fx (%zu of %zu directions "
              "are loss-capable)\n",
              wall_full / wall_best, lossy, directions);
  if (!digests_equal) {
    std::fprintf(stderr,
                 "FAIL: synthesized results differ across thread counts or "
                 "between the loss-capable and full scans\n");
    return 1;
  }
  return 0;
}

int run_paper_scale(const bench::BenchArgs& args, obs::Sink* sink) {
  // k=90 three-tier fat-tree: 90^3/2 = 364,500 switch-to-switch links,
  // in the band of the paper's largest production DCNs. 210 days of
  // 15-minute polls is the paper's full measurement window.
  const int days = bench::days_or(args, 210);
  std::printf("building k=90 fat-tree...\n");
  const topology::Topology topo = topology::build_fat_tree(90);
  analysis::StudyConfig config;
  config.days = days;
  config.epoch = common::kPollInterval;
  config.corrupting_link_fraction = 0.004;
  config.seed = 42;
  config.sink = sink;
  const analysis::MeasurementStudy study(topo, config);

  const auto epochs = static_cast<std::size_t>(
      days * (common::kDay / common::kPollInterval));
  const std::size_t lossy = study.loss_capable_directions();
  std::printf("%zu links, %zu directions (%zu loss-capable), %zu epochs, "
              "%zu threads\n",
              topo.link_count(), topo.direction_count(), lossy, epochs,
              args.threads);

  common::ThreadPool pool(args.threads);
  analysis::DailyDropTotalsAccumulator acc(days);
  const double wall = wall_seconds([&] { study.run(acc, &pool); });

  std::uint64_t corruption = 0, congestion = 0;
  for (std::uint64_t v : acc.corruption_per_day()) corruption += v;
  for (std::uint64_t v : acc.congestion_per_day()) congestion += v;
  const double samples = static_cast<double>(lossy * epochs);
  std::printf("synthesized %.3g samples in %.1f s (%.3g samples/s)\n",
              samples, wall, samples / wall);
  std::printf("window totals: %llu corruption drops, %llu congestion "
              "drops, digest %llx\n",
              static_cast<unsigned long long>(corruption),
              static_cast<unsigned long long>(congestion),
              static_cast<unsigned long long>(digest(acc)));
  std::printf("csv,runtime_study,paper_scale,%.4f\n", wall);
  bench::write_study_metrics_json(
      args.json_path("runtime_study"), "runtime_study",
      "bench_runtime_study", args.threads,
      {{"paper_scale",
        {{"links", static_cast<double>(topo.link_count())},
         {"directions", static_cast<double>(topo.direction_count())},
         {"lossy_directions", static_cast<double>(lossy)},
         {"epochs", static_cast<double>(epochs)},
         {"days", static_cast<double>(days)},
         {"threads", static_cast<double>(args.threads)},
         {"wall_seconds", wall},
         {"samples_per_second", samples / wall}}}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --paper-scale is local to this bench; everything else forwards to
  // the shared parser.
  bool paper_scale = false;
  std::vector<char*> forwarded = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paper-scale") == 0) {
      paper_scale = true;
    } else {
      forwarded.push_back(argv[i]);
    }
  }
  const bench::BenchArgs args = bench::parse_bench_args(
      static_cast<int>(forwarded.size()), forwarded.data());
  bench::print_header("Runtime (measurement study)",
                      paper_scale
                          ? "Paper-scale synthesis (~365K links, 210 days)"
                          : "Sharded synthesis wall-clock on the Figure 1 "
                            "workload, with determinism cross-checks");

  obs::MetricsRegistry registry;
  obs::Sink sink{&registry, nullptr, nullptr, 0};
  obs::Sink* maybe_sink = args.obs ? &sink : nullptr;

  const int rc = paper_scale ? run_paper_scale(args, maybe_sink)
                             : run_fig01_sweep(args, maybe_sink);

  if (args.obs) {
    for (const auto& timer : registry.snapshot().timers) {
      std::printf("obs timer %-20s count %8llu  total %.3f s\n",
                  timer.name.c_str(),
                  static_cast<unsigned long long>(timer.count), timer.sum);
    }
  }
  return rc;
}
