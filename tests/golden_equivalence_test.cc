// Golden equivalence: the discrete-event kernel refactor must not change
// a single output byte. This suite replays the sim_matrix_test
// configuration grid (checker mode x repair verification x detection
// mode x collateral modeling) with an observability sink attached and
// compares every SimulationMetrics field, the penalty/capacity series,
// and the obs journal bytes against fixtures recorded from the
// pre-refactor build (tests/golden/sim_equivalence.txt).
//
// Doubles are serialized with %.17g (lossless round-trip); series and
// journal bytes are compared through FNV-1a 64 digests plus lengths, so
// the fixture file stays a few KB while still asserting byte equality.
//
// Regenerating (only when an intentional behaviour change lands):
//   CORROPT_GOLDEN_RECORD=1 ./tests/golden_equivalence_test
// which rewrites the fixture in the source tree.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs_oracles.h"
#include "sim/mitigation_sim.h"
#include "topology/fat_tree.h"
#include "trace/trace.h"

namespace corropt::sim {
namespace {

constexpr char kFixtureRelPath[] = "/tests/golden/sim_equivalence.txt";


std::string fmt_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::uint64_t digest_series(const std::vector<TimePoint>& series) {
  std::uint64_t hash = common::kFnvBasis;
  for (const TimePoint& p : series) {
    hash = common::fnv1a(hash, &p.time, sizeof(p.time));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &p.value, sizeof(bits));
    hash = common::fnv1a(hash, &bits, sizeof(bits));
  }
  return hash;
}

std::uint64_t digest_doubles(const std::vector<double>& values) {
  std::uint64_t hash = common::kFnvBasis;
  for (const double value : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    hash = common::fnv1a(hash, &bits, sizeof(bits));
  }
  return hash;
}

using Params =
    std::tuple<core::CheckerMode, RepairVerification, DetectionMode, bool>;

std::vector<Params> config_grid() {
  std::vector<Params> grid;
  for (const core::CheckerMode mode :
       {core::CheckerMode::kSwitchLocal, core::CheckerMode::kFastCheckerOnly,
        core::CheckerMode::kCorrOpt}) {
    for (const RepairVerification verification :
         {RepairVerification::kEnableAndObserve,
          RepairVerification::kTestTraffic}) {
      for (const DetectionMode detection :
           {DetectionMode::kOracle, DetectionMode::kPolled}) {
        for (const bool collateral : {false, true}) {
          grid.emplace_back(mode, verification, detection, collateral);
        }
      }
    }
  }
  return grid;
}

std::string config_name(const Params& params) {
  const auto [mode, verification, detection, collateral] = params;
  std::string name;
  name += mode == core::CheckerMode::kSwitchLocal       ? "SwitchLocal"
          : mode == core::CheckerMode::kFastCheckerOnly ? "FastChecker"
                                                        : "CorrOpt";
  name += verification == RepairVerification::kTestTraffic ? "TestTraffic"
                                                           : "EnableObserve";
  name += detection == DetectionMode::kPolled ? "Polled" : "Oracle";
  name += collateral ? "Collateral" : "Plain";
  return name;
}

// key -> serialized value, insertion-ordered via the key prefix.
using Lines = std::vector<std::pair<std::string, std::string>>;

// Runs one configuration exactly the way sim_matrix_test does, with a
// journal + registry attached, and flattens everything observable into
// deterministic key/value lines.
Lines run_config(const Params& params) {
  const auto [mode, verification, detection, collateral] = params;

  auto topo = topology::build_fat_tree(8);
  topo.assign_breakout_groups(2, 0);
  topo.assign_breakout_groups(2, 1);

  common::Rng rng(77);
  trace::TraceParams trace_params;
  trace_params.faults_per_link_per_day = 0.01;
  trace_params.duration = 25 * common::kDay;
  const auto events =
      trace::CorruptionTraceGenerator(topo, trace_params, rng).generate();

  obs::MetricsRegistry registry;
  obs::EventJournal journal;
  obs::Sink sink{&registry, &journal, nullptr, 0};

  ScenarioConfig config;
  config.mode = mode;
  config.capacity_fraction = 0.5;
  config.duration = 90 * common::kDay;
  config.seed = 78;
  config.verification = verification;
  config.detection = detection;
  config.model_collateral_maintenance = collateral;
  config.account_collateral_repair = collateral;
  config.outcome.first_attempt_success = 0.7;
  config.sink = &sink;

  MitigationSimulation sim(topo, config);
  const SimulationMetrics metrics = sim.run(events);

  Lines lines;
  const auto add = [&lines](const std::string& key, const std::string& value) {
    lines.emplace_back(key, value);
  };
  const auto add_u64 = [&add](const std::string& key, std::uint64_t value) {
    add(key, std::to_string(value));
  };

  add("integrated_penalty", fmt_double(metrics.integrated_penalty));
  add("mean_tor_fraction", fmt_double(metrics.mean_tor_fraction));
  add_u64("faults_injected", metrics.faults_injected);
  add_u64("tickets_opened", metrics.tickets_opened);
  add_u64("repair_attempts", metrics.repair_attempts);
  add_u64("first_attempts", metrics.first_attempts);
  add_u64("first_attempt_successes", metrics.first_attempt_successes);
  add_u64("redetections", metrics.redetections);
  add_u64("polled_detections", metrics.polled_detections);
  add("mean_detection_latency_s", fmt_double(metrics.mean_detection_latency_s));
  add("mean_ticket_resolution_s", fmt_double(metrics.mean_ticket_resolution_s));
  add_u64("maintenance_windows", metrics.maintenance_windows);
  add_u64("maintenance_capacity_violations",
          metrics.maintenance_capacity_violations);
  add("collateral_link_seconds", fmt_double(metrics.collateral_link_seconds));
  add_u64("undisabled_detections", metrics.undisabled_detections);
  add_u64("controller.corruption_reports", metrics.controller.corruption_reports);
  add_u64("controller.disabled_on_arrival", metrics.controller.disabled_on_arrival);
  add_u64("controller.disabled_on_activation",
          metrics.controller.disabled_on_activation);
  add_u64("controller.tickets_issued", metrics.controller.tickets_issued);
  add_u64("controller.optimizer_runs", metrics.controller.optimizer_runs);

  add_u64("penalty_series.len", metrics.penalty_series.size());
  add_u64("penalty_series.digest", digest_series(metrics.penalty_series));
  add_u64("hourly_penalty.len", metrics.hourly_penalty.size());
  add_u64("hourly_penalty.digest", digest_doubles(metrics.hourly_penalty));
  add_u64("worst_tor_fraction.len", metrics.worst_tor_fraction.size());
  add_u64("worst_tor_fraction.digest",
          digest_series(metrics.worst_tor_fraction));
  add_u64("disabled_links.len", metrics.disabled_links.size());
  add_u64("disabled_links.digest", digest_series(metrics.disabled_links));

  // Journal bytes, exactly as ScenarioRunner's OBS_<exhibit>.jsonl writes
  // them (one line per event), and the registry snapshot (timers carry
  // wall clock and are excluded, the same exception DESIGN.md (sec)7
  // sanctions).
  const testing::ObsBytes bytes =
      testing::obs_bytes(journal.snapshot(), registry.snapshot());
  EXPECT_EQ(journal.dropped(), 0u);
  add_u64("journal.events", journal.snapshot().size());
  add_u64("journal.bytes", bytes.journal.size());
  add_u64("journal.digest",
          common::fnv1a(common::kFnvBasis, bytes.journal.data(),
                        bytes.journal.size()));
  add_u64("obs_metrics.bytes", bytes.metrics.size());
  add_u64("obs_metrics.digest",
          common::fnv1a(common::kFnvBasis, bytes.metrics.data(),
                        bytes.metrics.size()));
  return lines;
}

std::string fixture_path() {
  return std::string(CORROPT_SOURCE_DIR) + kFixtureRelPath;
}

TEST(GoldenEquivalence, MatchesPreRefactorFixtures) {
  const bool record = std::getenv("CORROPT_GOLDEN_RECORD") != nullptr;

  std::map<std::string, std::string> expected;
  if (!record) {
    std::ifstream in(fixture_path());
    ASSERT_TRUE(in) << "missing fixture " << fixture_path()
                    << " — record it with CORROPT_GOLDEN_RECORD=1";
    std::string key, value;
    while (in >> key >> value) expected.emplace(key, value);
    ASSERT_FALSE(expected.empty());
  }

  std::ostringstream recorded;
  std::size_t checked = 0;
  for (const Params& params : config_grid()) {
    const std::string name = config_name(params);
    SCOPED_TRACE(name);
    const Lines lines = run_config(params);
    for (const auto& [key, value] : lines) {
      const std::string full_key = name + "." + key;
      if (record) {
        recorded << full_key << " " << value << "\n";
        continue;
      }
      const auto it = expected.find(full_key);
      ASSERT_NE(it, expected.end()) << "fixture lacks " << full_key;
      EXPECT_EQ(it->second, value) << full_key << " diverged from the "
                                   << "pre-refactor build";
      ++checked;
    }
  }

  if (record) {
    std::ofstream out(fixture_path());
    ASSERT_TRUE(out) << "cannot write " << fixture_path();
    out << recorded.str();
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "recorded fresh fixtures to " << fixture_path();
  }
  EXPECT_EQ(checked, expected.size())
      << "fixture holds keys the run no longer produces";
}

}  // namespace
}  // namespace corropt::sim
