// Checkpoint round-trip property tests (DESIGN.md §14).
//
// The checkpoint contract is byte-equivalence of *outputs*, not of
// checkpoint bytes: restoring a snapshot into a simulation (even a dirty,
// previously-used one) and running to the horizon must reproduce the
// fresh end-to-end run exactly — every SimulationMetrics scalar at %.17g,
// every series byte, the decision-journal bytes and the registry
// snapshot. The big test asserts this at EVERY event boundary of a dense
// small-fabric scenario, restoring each snapshot into one reused mirror
// simulation (the mutate step: the mirror has just finished a different
// suffix, so any hidden state a restore fails to reset shows up as a
// divergent digest). A second test sweeps the 24-config sim_matrix grid
// at the midpoint boundary.
//
// The remaining cases pin down specific hidden-state hazards that were
// fixed for checkpointing: the optimizer's version-keyed baseline cache,
// the CorruptionSet's memoized penalty (raw Topology pointer), and the
// fault injector's id-ordered active set.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/hash.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "corropt/corruption_set.h"
#include "corropt/penalty.h"
#include "faults/fault_factory.h"
#include "faults/injector.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "sim/branch_runner.h"
#include "sim/mitigation_sim.h"
#include "telemetry/network_state.h"
#include "topology/fat_tree.h"
#include "trace/trace.h"

namespace corropt::sim {
namespace {

std::string fmt_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// One deterministic text fingerprint of everything a run can observably
// produce: a few headline scalars at full precision (for readable
// diffs), the metrics digest, journal JSONL digest, registry JSON
// digest. Two runs are byte-equivalent iff their fingerprints compare
// equal.
std::string fingerprint(const SimulationMetrics& metrics,
                        const obs::EventJournal& journal,
                        const obs::MetricsRegistry& registry) {
  std::ostringstream out;
  out << "integrated_penalty=" << fmt_double(metrics.integrated_penalty)
      << "\nfaults_injected=" << metrics.faults_injected
      << "\ntickets_opened=" << metrics.tickets_opened
      << "\nmetrics_digest=" << digest(metrics);

  std::ostringstream journal_bytes;
  for (const obs::Event& event : journal.snapshot()) {
    obs::write_event_jsonl(journal_bytes, event);
    journal_bytes << '\n';
  }
  const std::string journal_str = journal_bytes.str();
  out << "\njournal=" << journal.snapshot().size() << ":"
      << journal.dropped() << ":"
      << common::fnv1a(common::kFnvBasis, journal_str.data(),
                       journal_str.size());

  std::ostringstream registry_bytes;
  {
    common::JsonWriter json(registry_bytes);
    json.begin_object();
    registry.snapshot().write_json(json, /*include_timers=*/false);
    json.end_object();
  }
  const std::string registry_str = registry_bytes.str();
  out << "\nobs_metrics=" << registry_str.size() << ":"
      << common::fnv1a(common::kFnvBasis, registry_str.data(),
                       registry_str.size())
      << "\n";
  return out.str();
}

topology::Topology small_topology() {
  auto topo = topology::build_fat_tree(4);
  topo.assign_breakout_groups(2, 0);
  topo.assign_breakout_groups(2, 1);
  return topo;
}

std::vector<trace::TraceEvent> small_trace(const topology::Topology& topo) {
  common::Rng rng(101);
  trace::TraceParams params;
  // Dense on purpose: every component (detection, repair queue,
  // maintenance, optimizer) must be mid-flight at many boundaries.
  params.faults_per_link_per_day = 0.5;
  params.duration = common::kDay + common::kDay / 2;
  return trace::CorruptionTraceGenerator(topo, params, rng).generate();
}

// The densest configuration of the sim_matrix grid: full CorrOpt with
// polled detection, enable-and-observe verification and collateral
// maintenance modeling, so checkpoints carry every kind of pending state.
ScenarioConfig small_config(obs::Sink* sink) {
  ScenarioConfig config;
  config.mode = core::CheckerMode::kCorrOpt;
  config.capacity_fraction = 0.5;
  config.duration = 2 * common::kDay;
  config.seed = 55;
  config.verification = RepairVerification::kEnableAndObserve;
  config.detection = DetectionMode::kPolled;
  config.model_collateral_maintenance = true;
  config.account_collateral_repair = true;
  config.outcome.first_attempt_success = 0.6;
  config.sink = sink;
  return config;
}

struct SinkSet {
  obs::MetricsRegistry registry;
  obs::EventJournal journal;
  obs::Sink sink{&registry, &journal, nullptr, 0};
};

// --- Codec unit tests -------------------------------------------------

TEST(SnapshotCodec, RoundTripsScalars) {
  common::snap::Writer w;
  w.section(common::snap::tag('T', 'E', 'S', 'T'), 3);
  w.u8(0);
  w.u8(255);
  w.u64(0);
  w.u64(127);
  w.u64(128);
  w.u64(0xffffffffffffffffULL);
  w.u32(0xdeadbeefu);
  w.i64(0);
  w.i64(-1);
  w.i64(1);
  w.i64(-9223372036854775807LL - 1);
  w.i64(9223372036854775807LL);
  w.f64(0.0);
  w.f64(-0.0);
  w.f64(0.1);
  w.f64(-3.141592653589793e300);
  w.boolean(true);
  w.boolean(false);
  w.str("hello checkpoint");
  w.str("");
  {
    common::snap::Writer nested;
    nested.u64(42);
    w.blob(nested.take());
  }

  const std::string bytes = w.take();
  common::snap::Reader r(bytes);
  EXPECT_EQ(r.expect_section(common::snap::tag('T', 'E', 'S', 'T')), 3);
  EXPECT_EQ(r.u8(), 0);
  EXPECT_EQ(r.u8(), 255);
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.u64(), 127u);
  EXPECT_EQ(r.u64(), 128u);
  EXPECT_EQ(r.u64(), 0xffffffffffffffffULL);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.i64(), 0);
  EXPECT_EQ(r.i64(), -1);
  EXPECT_EQ(r.i64(), 1);
  EXPECT_EQ(r.i64(), -9223372036854775807LL - 1);
  EXPECT_EQ(r.i64(), 9223372036854775807LL);
  // Bit-exact doubles, including the sign of zero.
  double z = r.f64();
  EXPECT_EQ(z, 0.0);
  EXPECT_FALSE(std::signbit(z));
  z = r.f64();
  EXPECT_EQ(z, 0.0);
  EXPECT_TRUE(std::signbit(z));
  EXPECT_EQ(r.f64(), 0.1);
  EXPECT_EQ(r.f64(), -3.141592653589793e300);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello checkpoint");
  EXPECT_EQ(r.str(), "");
  {
    common::snap::Reader nested(r.blob());
    EXPECT_EQ(nested.u64(), 42u);
    EXPECT_TRUE(nested.at_end());
  }
  EXPECT_TRUE(r.at_end());
}

TEST(SnapshotCodec, HardErrorsOnMismatchAndTruncation) {
  common::snap::Writer w;
  w.section(common::snap::tag('G', 'O', 'O', 'D'), 1);
  w.u64(7);
  const std::string bytes = w.take();

  common::snap::Reader wrong_tag(bytes);
  EXPECT_THROW(wrong_tag.expect_section(common::snap::tag('E', 'V', 'I', 'L')),
               std::runtime_error);

  common::snap::Reader truncated(std::string_view(bytes).substr(0, 1));
  EXPECT_THROW((void)truncated.u64(), std::runtime_error);

  common::snap::Reader empty(std::string_view{});
  EXPECT_THROW((void)empty.u8(), std::runtime_error);
  EXPECT_THROW((void)empty.f64(), std::runtime_error);
  EXPECT_THROW((void)empty.str(), std::runtime_error);
}

// --- The core property: every event boundary round-trips -------------

TEST(CheckpointRoundTrip, EveryEventBoundaryReplaysByteIdentically) {
  // Reference: one fresh end-to-end run.
  std::string reference;
  {
    topology::Topology topo = small_topology();
    const auto events = small_trace(topo);
    SinkSet sinks;
    MitigationSimulation sim(topo, small_config(&sinks.sink));
    const SimulationMetrics metrics = sim.run(events);
    reference = fingerprint(metrics, sinks.journal, sinks.registry);
  }

  // Driver: the same scenario stepped one event at a time; mirror: ONE
  // reused simulation every snapshot is restored into. Between restores
  // the mirror has run a complete (different) suffix, so it arrives at
  // each restore maximally dirty.
  topology::Topology driver_topo = small_topology();
  const auto events = small_trace(driver_topo);
  SinkSet driver_sinks;
  MitigationSimulation driver(driver_topo, small_config(&driver_sinks.sink));
  driver.begin_run(events);

  topology::Topology mirror_topo = small_topology();
  SinkSet mirror_sinks;
  MitigationSimulation mirror(mirror_topo, small_config(&mirror_sinks.sink));

  std::size_t boundaries = 0;
  bool running = true;
  while (running) {
    const Checkpoint ckpt = driver.snapshot();
    ++boundaries;

    mirror.restore_run(events, ckpt);
    while (mirror.step()) {
    }
    const SimulationMetrics mirror_metrics = mirror.finish_run();
    ASSERT_EQ(fingerprint(mirror_metrics, mirror_sinks.journal,
                          mirror_sinks.registry),
              reference)
        << "restored run diverged from the fresh run when branching at "
        << "boundary " << (boundaries - 1) << " (t=" << ckpt.time << ")";

    running = driver.step();
  }
  // The stepwise driver itself must also match the one-shot run().
  const SimulationMetrics driver_metrics = driver.finish_run();
  EXPECT_EQ(
      fingerprint(driver_metrics, driver_sinks.journal, driver_sinks.registry),
      reference);
  // Sanity: the scenario is dense enough to make the sweep meaningful.
  EXPECT_GT(boundaries, 100u);
}

// --- Midpoint round-trip across the full sim_matrix grid --------------

using GridParams =
    std::tuple<core::CheckerMode, RepairVerification, DetectionMode, bool>;

std::vector<GridParams> config_grid() {
  std::vector<GridParams> grid;
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

TEST(CheckpointRoundTrip, MidpointAcrossSimMatrixGrid) {
  const auto grid = config_grid();
  ASSERT_EQ(grid.size(), 24u);
  for (const GridParams& params : grid) {
    const auto [mode, verification, detection, collateral] = params;
    SCOPED_TRACE(::testing::Message()
                 << "mode=" << static_cast<int>(mode) << " verification="
                 << static_cast<int>(verification)
                 << " detection=" << static_cast<int>(detection)
                 << " collateral=" << collateral);
    const auto configure = [&, mode = mode, verification = verification,
                            detection = detection,
                            collateral = collateral](obs::Sink* sink) {
      ScenarioConfig config = small_config(sink);
      config.mode = mode;
      config.verification = verification;
      config.detection = detection;
      config.model_collateral_maintenance = collateral;
      config.account_collateral_repair = collateral;
      return config;
    };

    std::string reference;
    {
      topology::Topology topo = small_topology();
      const auto events = small_trace(topo);
      SinkSet sinks;
      MitigationSimulation sim(topo, configure(&sinks.sink));
      const SimulationMetrics metrics = sim.run(events);
      reference = fingerprint(metrics, sinks.journal, sinks.registry);
    }

    topology::Topology driver_topo = small_topology();
    const auto events = small_trace(driver_topo);
    SinkSet driver_sinks;
    MitigationSimulation driver(driver_topo, configure(&driver_sinks.sink));
    driver.begin_run(events);
    const SimTime midpoint = common::kDay;
    while (driver.now() < midpoint && driver.step()) {
    }
    ASSERT_FALSE(driver.finished());
    const Checkpoint ckpt = driver.snapshot();

    topology::Topology branch_topo = small_topology();
    SinkSet branch_sinks;
    MitigationSimulation branch(branch_topo, configure(&branch_sinks.sink));
    branch.restore_run(events, ckpt);
    while (branch.step()) {
    }
    const SimulationMetrics metrics = branch.finish_run();
    EXPECT_EQ(
        fingerprint(metrics, branch_sinks.journal, branch_sinks.registry),
        reference);
  }
}

// --- Hidden-state regressions -----------------------------------------

// The optimizer's baseline/segment caches are keyed by the topology's
// state version; restoring the same checkpoint twice into one simulation
// rewinds that version to a value the optimizer has already seen with a
// different enabled mask. Without Controller::restore_from dropping the
// derived state, the second replay would reuse a stale baseline.
TEST(CheckpointHiddenState, SameCheckpointTwiceIntoDirtySim) {
  topology::Topology driver_topo = small_topology();
  const auto events = small_trace(driver_topo);
  SinkSet driver_sinks;
  MitigationSimulation driver(driver_topo, small_config(&driver_sinks.sink));
  driver.begin_run(events);
  while (driver.now() < common::kDay && driver.step()) {
  }
  ASSERT_FALSE(driver.finished());
  const Checkpoint ckpt = driver.snapshot();

  topology::Topology mirror_topo = small_topology();
  SinkSet mirror_sinks;
  MitigationSimulation mirror(mirror_topo, small_config(&mirror_sinks.sink));

  std::vector<std::string> prints;
  for (int round = 0; round < 2; ++round) {
    mirror.restore_run(events, ckpt);
    while (mirror.step()) {
    }
    const SimulationMetrics metrics = mirror.finish_run();
    prints.push_back(
        fingerprint(metrics, mirror_sinks.journal, mirror_sinks.registry));
  }
  EXPECT_EQ(prints[0], prints[1]);
}

// CorruptionSet memoizes total_active_penalty under (topology pointer,
// state version, epoch). A restore rewinds the epoch counter, so a set
// that was just used on a *different* timeline can present the exact
// cache key with different contents. restore_from must invalidate the
// cache (it also holds a raw Topology pointer from the source context).
TEST(CheckpointHiddenState, CorruptionSetPenaltyCacheDropped) {
  topology::Topology topo = small_topology();
  const core::PenaltyFunction penalty = core::PenaltyFunction::linear();

  // Timeline A: link 0 corrupting at 1e-4. Snapshot at epoch 1.
  core::CorruptionSet a;
  a.mark(common::LinkId(0), 1e-4);
  common::snap::Writer w;
  a.snapshot_to(w);
  const std::string bytes = w.take();

  // Timeline B: a different link at a different rate, same epoch
  // counter. Warm its memo against the same topology/version.
  core::CorruptionSet b;
  b.mark(common::LinkId(5), 3e-3);
  const double timeline_b = b.total_active_penalty(topo, penalty);
  ASSERT_NE(timeline_b, a.total_active_penalty(topo, penalty));

  // Restore A's state into B: every key of the memo (pointer, version,
  // epoch) still matches, so only an explicit cache drop saves us.
  common::snap::Reader r(bytes);
  b.restore_from(r);
  EXPECT_EQ(b.total_active_penalty(topo, penalty),
            a.total_active_penalty(topo, penalty));
}

// The penalty accountant folds active faults into a floating-point sum
// and the detection pipeline derives its suspect set from them, so
// active_faults() must be ordered by fault id — not by hash-map history,
// which churn perturbs and which a restore cannot reproduce.
TEST(CheckpointHiddenState, ActiveFaultsStayIdOrderedAcrossChurnAndRestore) {
  topology::Topology topo = small_topology();
  const telemetry::OpticalTech tech = telemetry::default_tech();
  telemetry::NetworkState state(topo, tech);
  common::Rng rng(9);
  faults::FaultFactory factory(topo, {}, rng);
  faults::FaultInjector injector(state);

  const auto id0 = injector.inject(factory.make_fault(
      common::LinkId(2), faults::RootCause::kConnectorContamination, 10));
  const auto id1 = injector.inject(factory.make_fault(
      common::LinkId(5), faults::RootCause::kDamagedFiber, 20));
  const auto id2 = injector.inject(factory.make_fault(
      common::LinkId(9), faults::RootCause::kBadOrLooseTransceiver, 30));
  injector.clear(id1);  // Churn: erase from the middle.
  const auto id3 = injector.inject(factory.make_fault(
      common::LinkId(1), faults::RootCause::kConnectorContamination, 40));

  const auto ordered_ids = [](const faults::FaultInjector& inj) {
    std::vector<common::FaultId> ids;
    for (const faults::Fault* fault : inj.active_faults()) {
      ids.push_back(fault->id);
    }
    return ids;
  };
  const std::vector<common::FaultId> want{id0, id2, id3};
  EXPECT_EQ(ordered_ids(injector), want);

  common::snap::Writer w;
  injector.snapshot_to(w);
  const std::string bytes = w.take();
  telemetry::NetworkState state2(topo, tech);
  faults::FaultInjector restored(state2);
  common::snap::Reader r(bytes);
  restored.restore_from(r);
  EXPECT_EQ(ordered_ids(restored), want);
  ASSERT_NE(restored.fault(id2), nullptr);
  EXPECT_EQ(restored.fault(id2)->links,
            std::vector<common::LinkId>{common::LinkId(9)});
  EXPECT_EQ(restored.fault(id2)->onset, 30);

  // The id counter survives: new injections never collide with restored
  // fault ids.
  const auto id4 = restored.inject(factory.make_fault(
      common::LinkId(3), faults::RootCause::kDamagedFiber, 50));
  EXPECT_GT(id4.value(), id3.value());
}

// --- Journal time travel ----------------------------------------------

// Replay-to-event-K: checkpoint_at_step(k) restored into a fresh
// simulation must present the decision journal exactly as it stood after
// the k-th dispatched event — a byte prefix of the full run's journal.
TEST(JournalReplay, CheckpointAtStepKRestoresJournalPrefix) {
  std::vector<std::string> full_lines;
  {
    topology::Topology topo = small_topology();
    const auto events = small_trace(topo);
    SinkSet sinks;
    MitigationSimulation sim(topo, small_config(&sinks.sink));
    (void)sim.run(events);
    for (const obs::Event& event : sinks.journal.snapshot()) {
      std::ostringstream line;
      obs::write_event_jsonl(line, event);
      full_lines.push_back(line.str());
    }
  }
  ASSERT_GT(full_lines.size(), 20u);

  BranchRunner runner([] { return small_topology(); });
  const topology::Topology trace_topo = small_topology();
  const auto events = small_trace(trace_topo);

  for (const std::uint64_t k : {std::uint64_t{0}, std::uint64_t{25},
                                std::uint64_t{117}}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    SinkSet base_sinks;
    const Checkpoint ckpt =
        runner.checkpoint_at_step(small_config(&base_sinks.sink), events, k);
    ASSERT_FALSE(ckpt.empty());
    EXPECT_EQ(ckpt.steps, k);

    topology::Topology topo = small_topology();
    SinkSet sinks;
    MitigationSimulation sim(topo, small_config(&sinks.sink));
    sim.restore_run(events, ckpt);

    const auto restored = sinks.journal.snapshot();
    ASSERT_LE(restored.size(), full_lines.size());
    for (std::size_t i = 0; i < restored.size(); ++i) {
      std::ostringstream line;
      obs::write_event_jsonl(line, restored[i]);
      ASSERT_EQ(line.str(), full_lines[i]) << "journal line " << i;
    }
  }
}

}  // namespace
}  // namespace corropt::sim
