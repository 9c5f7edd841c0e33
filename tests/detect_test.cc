// Tests for the pluggable detection/localization backends (DESIGN.md
// §13): 007-style voting correctness on a hand-built Clos, sketch
// precision/recall versus the width x depth geometry, backend selection
// through ScenarioConfig and fleet DcSpecs, pending-detection latency
// edge cases in the polled pipeline, and thread-count byte-identity of
// the bench_detection_compare document.
#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "detect/backend.h"
#include "detect/sketch.h"
#include "detect/voting.h"
#include "detection_compare.h"
#include "faults/fault_factory.h"
#include "fleet/fleet_campaign.h"
#include "fleet/fleet_json.h"
#include "sim/mitigation_sim.h"
#include "telemetry/monitor.h"
#include "telemetry/network_state.h"
#include "topology/fat_tree.h"

namespace corropt {
namespace {

using common::LinkId;

// Shared fixture state for backend-level tests: a k=8 fat tree with
// per-direction rates the test sets directly.
struct BackendFixture {
  topology::Topology topo = topology::build_fat_tree(8);
  telemetry::NetworkState state{topo, telemetry::default_tech()};
  common::Rng rng{1};

  [[nodiscard]] detect::BackendEnv env(std::uint64_t seed) {
    detect::BackendEnv e;
    e.topo = &topo;
    e.state = &state;
    e.rng = &rng;
    e.seed = seed;
    e.poll_utilization = 0.3;
    return e;
  }

  void set_link_rate(LinkId link, double rate) {
    state.direction(topology::direction_id(link, topology::LinkDirection::kUp))
        .corruption_rate = rate;
    state
        .direction(topology::direction_id(link,
                                          topology::LinkDirection::kDown))
        .corruption_rate = rate;
  }

  [[nodiscard]] LinkId tor_uplink(std::size_t tor, std::size_t port) const {
    return topo.switch_at(topo.tors()[tor]).uplinks[port];
  }
};

std::vector<detect::Verdict> run_cycles(detect::DetectionBackend& backend,
                                        int first_cycle, int last_cycle) {
  std::vector<detect::Verdict> verdicts;
  const std::vector<LinkId> no_suspects;
  for (int cycle = first_cycle; cycle <= last_cycle; ++cycle) {
    backend.poll(cycle * common::kPollInterval, no_suspects,
                 [&verdicts](const detect::Verdict& v) {
                   verdicts.push_back(v);
                 });
  }
  return verdicts;
}

TEST(VotingBackend, SingleBadLinkTopVotedThenCleared) {
  BackendFixture f;
  detect::VotingParams params;
  params.noise_bad_probability = 0.0;  // Isolate the voting logic.
  detect::VotingBackend backend(params, f.env(99));

  const LinkId bad = f.tor_uplink(0, 0);
  f.set_link_rate(bad, 1e-5);

  // First window: exactly the bad link is surfaced, at a rate estimate
  // above the report threshold.
  const auto verdicts = run_cycles(backend, 1, params.window_cycles);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].link, bad);
  EXPECT_EQ(verdicts[0].kind, detect::Verdict::Kind::kCorrupting);
  EXPECT_GE(verdicts[0].loss_rate, params.report_threshold);

  // Fault repaired: the next window carries failure-free flows through
  // the link and withdraws the report.
  f.set_link_rate(bad, 0.0);
  const auto clears =
      run_cycles(backend, params.window_cycles + 1, 2 * params.window_cycles);
  ASSERT_EQ(clears.size(), 1u);
  EXPECT_EQ(clears[0].link, bad);
  EXPECT_EQ(clears[0].kind, detect::Verdict::Kind::kCleared);
}

TEST(VotingBackend, TwoSimultaneousBadLinksBothSurfaced) {
  BackendFixture f;
  detect::VotingParams params;
  params.noise_bad_probability = 0.0;
  detect::VotingBackend backend(params, f.env(17));

  // Two bad links under different ToRs: the greedy decomposition must
  // report the second even though the first explains more failed flows.
  const LinkId bad_a = f.tor_uplink(0, 0);
  const LinkId bad_b = f.tor_uplink(f.topo.tors().size() - 1, 1);
  f.set_link_rate(bad_a, 1e-5);
  f.set_link_rate(bad_b, 1e-5);

  const auto verdicts = run_cycles(backend, 1, params.window_cycles);
  std::set<std::uint32_t> reported;
  for (const detect::Verdict& v : verdicts) {
    EXPECT_EQ(v.kind, detect::Verdict::Kind::kCorrupting);
    reported.insert(v.link.value());
  }
  EXPECT_EQ(reported,
            (std::set<std::uint32_t>{bad_a.value(), bad_b.value()}));
}

TEST(SketchBackend, WidthDepthTradesPrecisionNotRecall) {
  BackendFixture f;
  const LinkId bad = f.tor_uplink(0, 0);
  // Up direction only, so exactly one switch (the ToR) gets a dirty
  // sketch and the candidate set is its four uplinks.
  f.state
      .direction(topology::direction_id(bad, topology::LinkDirection::kUp))
      .corruption_rate = 1e-5;

  detect::SketchParams wide;
  wide.noise_directions_per_cycle = 0.0;  // Collisions only.
  detect::SketchParams narrow = wide;
  narrow.width = 1;
  narrow.depth = 1;

  detect::SketchBackend wide_backend(wide, f.env(7));
  detect::SketchBackend narrow_backend(narrow, f.env(7));

  // persistence_windows windows of window_polls cycles each.
  const int cycles = wide.window_polls * wide.persistence_windows;
  const auto wide_verdicts = run_cycles(wide_backend, 1, cycles);
  const auto narrow_verdicts = run_cycles(narrow_backend, 1, cycles);

  // The wide sketch decodes exactly the lossy link.
  ASSERT_EQ(wide_verdicts.size(), 1u);
  EXPECT_EQ(wide_verdicts[0].link, bad);
  EXPECT_EQ(wide_verdicts[0].kind, detect::Verdict::Kind::kCorrupting);

  // A single-cell sketch aliases every egress direction of the dirty
  // ToR onto the bad link's counters: same recall, collapsed precision
  // (all four uplinks of the ToR decode above threshold).
  const auto& uplinks = f.topo.switch_at(f.topo.tors()[0]).uplinks;
  EXPECT_EQ(narrow_verdicts.size(), uplinks.size());
  std::set<std::uint32_t> reported;
  for (const detect::Verdict& v : narrow_verdicts) {
    reported.insert(v.link.value());
  }
  EXPECT_TRUE(reported.count(bad.value()));
  for (const LinkId uplink : uplinks) {
    EXPECT_TRUE(reported.count(uplink.value()));
  }
}

TEST(ThresholdBackend, ResetRequiresAFreshDetectionWindow) {
  BackendFixture f;
  const LinkId bad = f.tor_uplink(0, 0);
  f.set_link_rate(bad, 1e-3);

  detect::BackendConfig config;  // kThreshold.
  auto backend = detect::make_backend(config, telemetry::DetectorParams{},
                                      f.env(5));
  ASSERT_EQ(backend->kind(), detect::BackendKind::kThreshold);

  const std::vector<LinkId> suspects{bad};
  auto polls_until_verdict = [&](int start_cycle) {
    for (int i = 0; i < 32; ++i) {
      bool got = false;
      backend->poll((start_cycle + i) * common::kPollInterval, suspects,
                    [&got](const detect::Verdict& v) {
                      if (v.kind == detect::Verdict::Kind::kCorrupting) {
                        got = true;
                      }
                    });
      if (got) return i + 1;
    }
    return -1;
  };

  const int first = polls_until_verdict(1);
  ASSERT_GT(first, 1);  // Windowing: a single sample is not enough.

  // reset() must drop the alert AND the window, so re-detection costs a
  // full window again — the expect_redetection latency contract.
  backend->reset(bad);
  const int again = polls_until_verdict(64);
  EXPECT_EQ(again, first);
}

TEST(BackendFactory, NamesAndProfiles) {
  EXPECT_EQ(detect::backend_name(detect::BackendKind::kThreshold),
            "threshold");
  EXPECT_EQ(detect::backend_name(detect::BackendKind::kVoting), "voting");
  EXPECT_EQ(detect::backend_name(detect::BackendKind::kSketch), "sketch");

  // The default backend's profile is exactly neutral: the churn stream
  // of a default ChurnParams is byte-identical to the pre-backend one.
  const auto neutral =
      detect::backend_profile(detect::BackendKind::kThreshold);
  EXPECT_EQ(neutral.extra_latency_mean_s, 0.0);
  EXPECT_EQ(neutral.false_positive_fraction, 0.0);
  EXPECT_GT(detect::backend_profile(detect::BackendKind::kVoting)
                .extra_latency_mean_s,
            0.0);
  EXPECT_GT(detect::backend_profile(detect::BackendKind::kSketch)
                .false_positive_fraction,
            0.0);

  detect::BackendConfig config;
  EXPECT_FALSE(config.detailed_obs());
  config.kind = detect::BackendKind::kVoting;
  EXPECT_TRUE(config.detailed_obs());
  config.kind = detect::BackendKind::kSketch;
  EXPECT_TRUE(config.detailed_obs());
}

// One strong fault driven end to end through MitigationSimulation with
// each non-default backend selected via ScenarioConfig.
TEST(BackendPlumbing, ScenarioConfigSelectsVotingAndSketch) {
  for (const detect::BackendKind kind :
       {detect::BackendKind::kVoting, detect::BackendKind::kSketch}) {
    auto topo = topology::build_fat_tree(8);
    sim::ScenarioConfig config;
    config.duration = 10 * common::kDay;
    config.capacity_fraction = 0.5;
    config.detection = sim::DetectionMode::kPolled;
    config.outcome.first_attempt_success = 1.0;
    config.seed = 41;
    config.backend.kind = kind;
    config.backend.voting.flows_per_cycle = 400;
    // Silence the congestion-noise models: this test asserts the
    // single-fault plumbing, not the backends' false-positive behavior
    // (bench_detection_compare measures that).
    config.backend.voting.noise_bad_probability = 0.0;
    config.backend.sketch.noise_directions_per_cycle = 0.0;

    const LinkId bad = topo.switch_at(topo.tors().front()).uplinks[0];
    common::Rng rng(42);
    faults::FaultFactory factory(topo, {}, rng);
    trace::TraceEvent event;
    event.time = common::kDay;
    event.fault = factory.make_fault(
        bad, faults::RootCause::kBadOrLooseTransceiver, event.time);
    for (auto& effect : event.fault.effects) effect.corruption_rate = 1e-3;

    sim::MitigationSimulation sim(topo, config);
    const auto metrics = sim.run({event});
    EXPECT_GE(metrics.polled_detections, 1u) << detect::backend_name(kind);
    ASSERT_GE(metrics.detection_latencies_s.size(), 1u)
        << detect::backend_name(kind);
    // Windowed decodes: later than one poll, earlier than a day.
    EXPECT_GT(metrics.detection_latencies_s[0], 0.0);
    EXPECT_LE(metrics.detection_latencies_s[0],
              static_cast<double>(common::kDay));
    EXPECT_EQ(metrics.repair_attempts, 1u) << detect::backend_name(kind);
    EXPECT_EQ(topo.enabled_link_count(), topo.link_count());
  }
}

TEST(BackendPlumbing, DcSpecBackendReachesFleetResultAndJson) {
  fleet::FleetSpec spec;
  spec.seed = 7;
  fleet::DcSpec dc;
  dc.key = 21;
  dc.name = "sketchy";
  dc.shape = fleet::DcShape::kXgft;
  dc.xgft = topology::fat_tree_spec(8);
  dc.trace.faults_per_link_per_day = 0.005;
  dc.trace.duration = 10 * common::kDay;
  dc.config.duration = 10 * common::kDay;
  dc.config.capacity_fraction = 0.5;
  dc.config.backend.kind = detect::BackendKind::kSketch;
  spec.dcs.push_back(dc);

  const fleet::FleetResult result = fleet::FleetCampaign(spec).run({});
  ASSERT_EQ(result.dcs.size(), 1u);
  EXPECT_EQ(result.dcs[0].backend, detect::BackendKind::kSketch);
  const std::string json = fleet::fleet_json_string(result, "detect_test");
  EXPECT_NE(json.find("\"backend\": \"sketch\""), std::string::npos);

  // Default-backend fleets serialize without any backend tag, keeping
  // pre-existing fleet documents byte-identical.
  spec.dcs[0].config.backend.kind = detect::BackendKind::kThreshold;
  const fleet::FleetResult plain = fleet::FleetCampaign(spec).run({});
  EXPECT_EQ(plain.dcs[0].backend, detect::BackendKind::kThreshold);
  EXPECT_EQ(fleet::fleet_json_string(plain, "detect_test").find("backend"),
            std::string::npos);
}

// A failed repair under enable-and-observe restarts the latency clock:
// the second detection's latency is measured from re-enablement, not
// from the original fault onset days earlier.
TEST(PendingDetection, FailedRepairRestartsTheLatencyClock) {
  auto topo = topology::build_fat_tree(8);
  sim::ScenarioConfig config;
  config.duration = 20 * common::kDay;
  config.capacity_fraction = 0.5;
  config.detection = sim::DetectionMode::kPolled;
  config.verification = sim::RepairVerification::kEnableAndObserve;
  config.redetection_delay = 6 * common::kHour;
  config.outcome.first_attempt_success = 0.0;
  config.seed = 41;

  common::Rng rng(8);
  faults::FaultFactory factory(topo, {}, rng);
  trace::TraceEvent event;
  event.time = common::kDay;
  event.fault = factory.make_fault(
      common::LinkId(3), faults::RootCause::kConnectorContamination,
      event.time);
  for (auto& effect : event.fault.effects) effect.corruption_rate = 1e-3;

  sim::MitigationSimulation sim(topo, config);
  const auto metrics = sim.run({event});
  EXPECT_EQ(metrics.polled_detections, 2u);
  ASSERT_EQ(metrics.detection_latencies_s.size(), 2u);
  for (const double latency : metrics.detection_latencies_s) {
    // Each detection is within one threshold window of its own clock
    // start; a stale clock would report the multi-day repair time.
    EXPECT_GT(latency, 0.0);
    EXPECT_LE(latency, 3.0 * common::kHour);
  }
  EXPECT_EQ(metrics.repair_attempts, 2u);
  EXPECT_EQ(topo.enabled_link_count(), topo.link_count());
}

// A shared-component fault whose peer link clears through the other
// ticket before the backend ever saw a drop: the peer's pending entry
// must be swept as a missed detection, not detected late or leaked.
TEST(PendingDetection, SharedPeerClearedBeforeDetectionCountsMissed) {
  auto topo = topology::build_fat_tree(8);
  const LinkId loud = topo.switch_at(topo.tors().front()).uplinks[0];
  const LinkId quiet = topo.switch_at(topo.tors().front()).uplinks[1];

  sim::ScenarioConfig config;
  config.duration = 10 * common::kDay;
  config.capacity_fraction = 0.5;
  config.detection = sim::DetectionMode::kPolled;
  config.outcome.first_attempt_success = 1.0;
  // Fast crew: the shared repair lands before the quiet link's ~1e-8
  // rate ever produces a counter sample.
  config.queue.service_time = common::kHour;
  config.seed = 3;

  faults::Fault fault;
  fault.cause = faults::RootCause::kSharedComponent;
  fault.links = {loud, quiet};
  fault.fixing_actions = {faults::RepairAction::kReplaceSharedComponent};
  faults::DirectionEffect loud_effect;
  loud_effect.direction =
      topology::direction_id(loud, topology::LinkDirection::kUp);
  loud_effect.corruption_rate = 1e-3;
  faults::DirectionEffect quiet_effect;
  quiet_effect.direction =
      topology::direction_id(quiet, topology::LinkDirection::kUp);
  quiet_effect.corruption_rate = 1e-8;
  fault.effects = {loud_effect, quiet_effect};
  fault.onset = common::kDay;
  trace::TraceEvent event;
  event.time = common::kDay;
  event.fault = fault;

  sim::MitigationSimulation sim(topo, config);
  const auto metrics = sim.run({event});
  // Only the loud link was detected; the quiet peer is a false negative.
  EXPECT_EQ(metrics.polled_detections, 1u);
  EXPECT_EQ(metrics.missed_detections, 1u);
  EXPECT_EQ(metrics.detection_latencies_s.size(), 1u);
  EXPECT_EQ(metrics.false_positive_detections, 0u);
  EXPECT_EQ(topo.enabled_link_count(), topo.link_count());
}

TEST(DetectionCompare, JsonByteIdenticalAcrossThreadCounts) {
  const std::vector<bench::ScenarioJob> jobs =
      bench::make_detection_compare_jobs(2 * common::kDay);
  ASSERT_EQ(jobs.size(), 9u);  // 3 backends x 3 fault mixes.

  bench::ScenarioRunner sequential(1);
  bench::ScenarioRunner pooled(4);
  const std::string a =
      bench::detection_compare_json(sequential.run(jobs), "detect_test");
  const std::string b =
      bench::detection_compare_json(pooled.run(jobs), "detect_test");
  EXPECT_EQ(a, b);

  EXPECT_NE(a.find("\"exhibit\": \"detection_compare\""), std::string::npos);
  EXPECT_NE(a.find("\"backend\": \"voting\""), std::string::npos);
  EXPECT_NE(a.find("\"penalty_delta_vs_threshold\""), std::string::npos);
  // The document is defined thread-invariant: no pool size, no wall
  // clocks.
  EXPECT_EQ(a.find("threads"), std::string::npos);
  EXPECT_EQ(a.find("wall_seconds"), std::string::npos);
}

}  // namespace
}  // namespace corropt
