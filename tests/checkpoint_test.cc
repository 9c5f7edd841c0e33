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
// fixed for checkpointing: path-count caches meeting a restored mask,
// the network state and penalty rate a restore recomputes instead of
// reading, a restored corruption set folding its own contents, and the
// fault injector's id-ordered active set; and malformed length
// prefixes, which must fail instead of allocating.
//
// The wire format itself is pinned by recorded digests of fixed midpoint
// checkpoints. The integrity cases flip, extend and edit sealed
// checkpoints: the checksum trailer must reject every bit flip, and
// an edit that is resealed must be rejected by the decoder or restore
// cleanly, never crash.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "corropt/controller.h"
#include "corropt/corruption_set.h"
#include "corropt/penalty.h"
#include "detect/sketch.h"
#include "detect/threshold.h"
#include "faults/fault_factory.h"
#include "faults/injector.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs_oracles.h"
#include "bench_util.h"
#include "scenario_runner.h"
#include "sim/branch_runner.h"
#include "sim/mitigation_sim.h"
#include "telemetry/network_state.h"
#include "topology/fat_tree.h"
#include "trace/trace.h"

namespace corropt::sim {

// Every direction's Tx power, attenuation and corruption rate, as bits.
struct NetworkStateProbe {
  static std::vector<std::array<std::uint64_t, 3>> read(
      const MitigationSimulation& sim) {
    const telemetry::NetworkState& state = sim.state_;
    std::vector<std::array<std::uint64_t, 3>> out;
    for (std::size_t i = 0; i < state.topo().direction_count(); ++i) {
      const common::DirectionId dir(
          static_cast<common::DirectionId::underlying_type>(i));
      const telemetry::ConstDirectionView d = state.direction(dir);
      out.push_back({std::bit_cast<std::uint64_t>(d.tx_power_dbm),
                     std::bit_cast<std::uint64_t>(d.extra_attenuation_db),
                     std::bit_cast<std::uint64_t>(d.corruption_rate)});
    }
    return out;
  }
};

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

  const testing::ObsBytes bytes =
      testing::obs_bytes(journal.snapshot(), registry.snapshot());
  out << "\njournal=" << journal.snapshot().size() << ":"
      << journal.dropped() << ":"
      << common::fnv1a(common::kFnvBasis, bytes.journal.data(),
                       bytes.journal.size());
  out << "\nobs_metrics=" << bytes.metrics.size() << ":"
      << common::fnv1a(common::kFnvBasis, bytes.metrics.data(),
                       bytes.metrics.size())
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
  w.section(common::snap::tag('T', 'E', 'S', 'T'), 3, "test");
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
  r.section(common::snap::tag('T', 'E', 'S', 'T'), 3, "test");
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
  w.section(common::snap::tag('G', 'O', 'O', 'D'), 1, "good");
  w.u64(7);
  const std::string bytes = w.take();

  common::snap::Reader wrong_tag(bytes);
  EXPECT_THROW(
      wrong_tag.section(common::snap::tag('E', 'V', 'I', 'L'), 1, "evil"),
      std::runtime_error);
  common::snap::Reader wrong_version(bytes);
  EXPECT_THROW(
      wrong_version.section(common::snap::tag('G', 'O', 'O', 'D'), 2, "good"),
      std::runtime_error);

  common::snap::Reader truncated(std::string_view(bytes).substr(0, 1));
  EXPECT_THROW((void)truncated.u64(), std::runtime_error);

  common::snap::Reader empty(std::string_view{});
  EXPECT_THROW((void)empty.u8(), std::runtime_error);
  EXPECT_THROW((void)empty.f64(), std::runtime_error);
  EXPECT_THROW((void)empty.str(), std::runtime_error);
}

// Every sequence element takes at least one byte, so a length prefix
// above the remaining bytes is malformed and must fail before any
// allocation is sized from it.
TEST(SnapshotCodec, LengthRejectsCountBeyondRemainingBytes) {
  common::snap::Writer w;
  w.u64(3);
  w.u8(1);
  w.u8(2);
  w.u8(3);
  w.u64(std::uint64_t{1} << 40);
  const std::string bytes = w.take();
  common::snap::Reader r(bytes);
  EXPECT_EQ(r.length(), 3u);
  (void)r.u8();
  (void)r.u8();
  (void)r.u8();
  EXPECT_THROW((void)r.length(), std::runtime_error);
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

ScenarioConfig grid_config(const GridParams& params, obs::Sink* sink) {
  const auto [mode, verification, detection, collateral] = params;
  ScenarioConfig config = small_config(sink);
  config.mode = mode;
  config.verification = verification;
  config.detection = detection;
  config.model_collateral_maintenance = collateral;
  config.account_collateral_repair = collateral;
  return config;
}

std::string grid_name(const GridParams& params) {
  const auto [mode, verification, detection, collateral] = params;
  std::ostringstream out;
  out << "mode=" << static_cast<int>(mode)
      << ".verification=" << static_cast<int>(verification)
      << ".detection=" << static_cast<int>(detection)
      << ".collateral=" << collateral;
  return out.str();
}

// Runs `config` over the small fabric up to the one-day midpoint and
// snapshots it there.
Checkpoint midday_checkpoint(const ScenarioConfig& config,
                             const std::vector<trace::TraceEvent>& events) {
  topology::Topology topo = small_topology();
  MitigationSimulation sim(topo, config);
  sim.begin_run(events);
  while (sim.now() < common::kDay && sim.step()) {
  }
  EXPECT_FALSE(sim.finished());
  return sim.snapshot();
}

TEST(CheckpointRoundTrip, MidpointAcrossSimMatrixGrid) {
  const auto grid = config_grid();
  ASSERT_EQ(grid.size(), 24u);
  for (const GridParams& params : grid) {
    SCOPED_TRACE(grid_name(params));
    std::string reference;
    {
      topology::Topology topo = small_topology();
      const auto events = small_trace(topo);
      SinkSet sinks;
      MitigationSimulation sim(topo, grid_config(params, &sinks.sink));
      const SimulationMetrics metrics = sim.run(events);
      reference = fingerprint(metrics, sinks.journal, sinks.registry);
    }

    const topology::Topology trace_topo = small_topology();
    const auto events = small_trace(trace_topo);
    SinkSet driver_sinks;
    const Checkpoint ckpt =
        midday_checkpoint(grid_config(params, &driver_sinks.sink), events);

    topology::Topology branch_topo = small_topology();
    SinkSet branch_sinks;
    MitigationSimulation branch(branch_topo,
                                grid_config(params, &branch_sinks.sink));
    branch.restore_run(events, ckpt);
    while (branch.step()) {
    }
    const SimulationMetrics metrics = branch.finish_run();
    EXPECT_EQ(
        fingerprint(metrics, branch_sinks.journal, branch_sinks.registry),
        reference);
  }
}

// --- Wire format ------------------------------------------------------

// Every midpoint checkpoint of the grid (sink attached) and of the dense
// scenario on the voting and sketch backends, as length and FNV-1a
// digest of the bytes the trailer covers. A codec change that moves a
// single byte fails here. Regenerate (only for an intentional format
// change) by running the test with CORROPT_GOLDEN_RECORD=1 set, e.g.
// --gtest_filter='CheckpointBytes.*': it then rewrites
// tests/golden/checkpoint_bytes.txt in the source tree instead.
std::string bytes_fixture_path() {
  return std::string(CORROPT_SOURCE_DIR) + "/tests/golden/checkpoint_bytes.txt";
}

ScenarioConfig backend_config(detect::BackendKind kind, obs::Sink* sink) {
  ScenarioConfig config = small_config(sink);
  config.backend = kind;
  return config;
}

TEST(CheckpointBytes, MatchRecordedDigests) {
  const bool record = std::getenv("CORROPT_GOLDEN_RECORD") != nullptr;
  std::map<std::string, std::string> expected;
  if (!record) {
    std::ifstream in(bytes_fixture_path());
    ASSERT_TRUE(in) << "missing fixture " << bytes_fixture_path();
    std::string key, value;
    while (in >> key >> value) expected.emplace(key, value);
    ASSERT_FALSE(expected.empty());
  }

  std::vector<std::pair<std::string, ScenarioConfig>> cases;
  for (const GridParams& params : config_grid()) {
    cases.emplace_back("grid." + grid_name(params),
                       grid_config(params, nullptr));
  }
  cases.emplace_back("backend=voting",
                     backend_config(detect::BackendKind::kVoting, nullptr));
  cases.emplace_back("backend=sketch",
                     backend_config(detect::BackendKind::kSketch, nullptr));

  const topology::Topology trace_topo = small_topology();
  const auto events = small_trace(trace_topo);
  std::ostringstream recorded;
  for (auto& [name, config] : cases) {
    SCOPED_TRACE(name);
    SinkSet sinks;
    config.sink = &sinks.sink;
    const Checkpoint ckpt = midday_checkpoint(config, events);
    const std::string_view payload = common::snap::unseal(ckpt.bytes);
    const std::string value =
        std::to_string(payload.size()) + ":" +
        std::to_string(common::fnv1a(common::kFnvBasis, payload.data(),
                                     payload.size()));
    if (record) {
      recorded << name << " " << value << "\n";
      continue;
    }
    const auto it = expected.find(name);
    ASSERT_NE(it, expected.end()) << "fixture lacks " << name;
    EXPECT_EQ(it->second, value) << name << " checkpoint bytes changed";
  }
  if (record) {
    std::ofstream out(bytes_fixture_path());
    ASSERT_TRUE(out) << "cannot write " << bytes_fixture_path();
    out << recorded.str();
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "recorded fresh digests to " << bytes_fixture_path();
  }
  EXPECT_EQ(expected.size(), cases.size());
}

// --- Hidden-state regressions -----------------------------------------

// Restoring the same checkpoint twice into one simulation brings back
// an enabled mask the controller's caches last saw before a whole
// replay moved them on. The mask-keyed caches fold the difference in,
// so the second replay matches the first.
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

// The network state is not checkpointed: restore rebuilds every
// direction from the restored faults and decay clock. Restored into a
// simulation that ran another trace, with decaying transmitters and
// other faults on links the checkpoint leaves healthy, every direction
// must read what the fresh run read at that boundary, the directions
// only the other trace faulted included, and the run must finish as
// the fresh one does.
TEST(CheckpointHiddenState, RestoreIntoDirtySimulationRebuildsNetworkState) {
  topology::Topology driver_topo = small_topology();
  const auto events = small_trace(driver_topo);
  SinkSet driver_sinks;
  MitigationSimulation driver(driver_topo, small_config(&driver_sinks.sink));
  driver.begin_run(events);
  while (driver.now() < common::kDay && driver.step()) {
  }
  ASSERT_FALSE(driver.finished());
  const Checkpoint ckpt = driver.snapshot();
  const auto at_boundary = NetworkStateProbe::read(driver);
  while (driver.step()) {
  }
  const SimulationMetrics driver_metrics = driver.finish_run();
  const std::string reference = fingerprint(
      driver_metrics, driver_sinks.journal, driver_sinks.registry);

  // The other trace: a decaying transmitter and a damaged fiber on each
  // of the last six links, one an hour.
  topology::Topology mirror_topo = small_topology();
  common::Rng rng(303);
  faults::FaultFactory factory(mirror_topo, {}, rng);
  std::vector<trace::TraceEvent> other;
  std::vector<common::DirectionId> decaying;
  for (std::size_t i = 0; i < 12; ++i) {
    const common::LinkId link(static_cast<common::LinkId::underlying_type>(
        mirror_topo.link_count() - 1 - i / 2));
    trace::TraceEvent event;
    event.time = static_cast<SimTime>(i + 1) * common::kHour;
    event.fault = factory.make_fault(
        link,
        i % 2 == 0 ? faults::RootCause::kDecayingTransmitter
                   : faults::RootCause::kDamagedFiber,
        event.time);
    for (const faults::DirectionEffect& effect : event.fault.effects) {
      if (effect.tx_decay_db_per_day != 0.0) {
        decaying.push_back(effect.direction);
      }
    }
    other.push_back(std::move(event));
  }
  ASSERT_FALSE(decaying.empty());
  SinkSet mirror_sinks;
  MitigationSimulation mirror(mirror_topo, small_config(&mirror_sinks.sink));
  mirror.begin_run(other);
  while (mirror.now() < common::kDay + 6 * common::kHour && mirror.step()) {
  }
  // The test bites only if the dirty state differs where the checkpoint
  // leaves a direction unfaulted, on a decaying transmitter among them.
  const auto dirty = NetworkStateProbe::read(mirror);
  const std::array<std::uint64_t, 3> nominal = {
      std::bit_cast<std::uint64_t>(telemetry::default_tech().nominal_tx_dbm),
      std::bit_cast<std::uint64_t>(0.0), std::bit_cast<std::uint64_t>(0.0)};
  std::size_t stale_decaying = 0;
  for (const common::DirectionId dir : decaying) {
    const std::size_t d = dir.index();
    if (at_boundary[d] == nominal && dirty[d] != nominal) ++stale_decaying;
  }
  ASSERT_GT(stale_decaying, 0u);

  mirror.restore_run(events, ckpt);
  const auto restored = NetworkStateProbe::read(mirror);
  ASSERT_EQ(restored.size(), at_boundary.size());
  for (std::size_t d = 0; d < restored.size(); ++d) {
    EXPECT_EQ(restored[d], at_boundary[d]) << "direction " << d;
  }
  while (mirror.step()) {
  }
  const SimulationMetrics metrics = mirror.finish_run();
  EXPECT_EQ(fingerprint(metrics, mirror_sinks.journal, mirror_sinks.registry),
            reference);
}

// A mid-run checkpoint of the dense scenario without a sink, for the
// tests that edit checkpoint bytes.
Checkpoint midday_checkpoint(const std::vector<trace::TraceEvent>& events) {
  return midday_checkpoint(small_config(nullptr), events);
}

// Seals spliced checkpoint bytes again, so a restore gets past the
// checksum and reaches the decoder.
void reseal(std::string& bytes) {
  bytes.resize(bytes.size() - common::snap::kTrailerBytes);
  common::snap::seal(bytes);
}

// Offset of the section header (tag, version), which must occur exactly
// once in `bytes`.
std::size_t section_at(const std::string& bytes, std::uint32_t tag,
                       std::uint16_t version) {
  common::snap::Writer header;
  header.section(tag, version, "");
  const std::string marker = header.take();
  const std::size_t at = bytes.find(marker);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(bytes.find(marker, at + 1), std::string::npos);
  return at;
}

// Expects restoring `ckpt` to throw std::runtime_error whose message
// contains `what`.
void expect_rejected(MitigationSimulation& sim,
                     const std::vector<trace::TraceEvent>& events,
                     const Checkpoint& ckpt, const std::string& what) {
  try {
    sim.restore_run(events, ckpt);
    ADD_FAILURE() << "accepted; expected \"" << what << "\"";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(what), std::string::npos)
        << error.what();
  }
}

// Offset just past the section header (tag, version) in `bytes`.
std::size_t payload_at(const std::string& bytes, std::uint32_t tag,
                       std::uint16_t version) {
  common::snap::Writer header;
  header.section(tag, version, "");
  return section_at(bytes, tag, version) + header.take().size();
}

// A real simulation checkpoint whose fault injector section claims 2^40
// active faults must be rejected as malformed, not turned into an
// allocation.
TEST(CheckpointMutation, InflatedFaultCountThrows) {
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  Checkpoint ckpt = midday_checkpoint(events);

  // Replace the length prefix that follows the FLTS section header.
  const std::size_t length_at =
      payload_at(ckpt.bytes, common::snap::tag('F', 'L', 'T', 'S'), 1);
  std::size_t length_end = length_at;
  while ((static_cast<unsigned char>(ckpt.bytes[length_end]) & 0x80) != 0) {
    ++length_end;
  }
  common::snap::Writer inflated;
  inflated.u64(std::uint64_t{1} << 40);
  ckpt.bytes.replace(length_at, length_end + 1 - length_at, inflated.take());
  reseal(ckpt.bytes);

  topology::Topology mirror_topo = small_topology();
  MitigationSimulation mirror(mirror_topo, small_config(nullptr));
  expect_rejected(mirror, events, ckpt,
                  "length prefix exceeds the remaining bytes");
}

// The corruption set's entries in CorruptionSet::walk's field order.
struct CorruptionEntries {
  std::vector<std::tuple<common::LinkId, double, std::uint64_t>> entries;
  std::uint64_t next_seq = 0;
};

CorruptionEntries read_corruption_set(common::snap::Reader& r) {
  CorruptionEntries out;
  r.seq(out.entries, [&r](auto& entry) {
    r.id(std::get<0>(entry));
    r.f64(std::get<1>(entry));
    r.u64(std::get<2>(entry));
  });
  r.u64(out.next_seq);
  return out;
}

void write_corruption_entries(common::snap::Writer& w,
                              const CorruptionEntries& set) {
  w.seq(set.entries, [&w](const auto& entry) {
    w.id(std::get<0>(entry));
    w.f64(std::get<1>(entry));
    w.u64(std::get<2>(entry));
  });
  w.u64(set.next_seq);
}

// The controller section before version 3 held a CORR version 1 (with
// its mutation epoch) and the fast checker's FCHK section. A checkpoint
// holding such a section, well formed for its version, must be
// rejected rather than misread as version 3.
TEST(CheckpointHiddenState, ControllerVersion2SectionRejected) {
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  Checkpoint ckpt = midday_checkpoint(events);

  const std::uint32_t ctrl = common::snap::tag('C', 'T', 'R', 'L');
  const std::uint32_t corr = common::snap::tag('C', 'O', 'R', 'R');
  const std::size_t at = section_at(ckpt.bytes, ctrl, 3);
  common::snap::Reader r(std::string_view(ckpt.bytes).substr(at));
  r.section(ctrl, 3, "controller");
  core::Controller::Stats stats;
  core::Controller::Stats::walk(stats, r);
  r.section(corr, 2, "corruption set");
  const CorruptionEntries set = read_corruption_set(r);
  const std::size_t end = ckpt.bytes.size() - r.remaining();

  common::snap::Writer v2;
  v2.section(ctrl, 2, "controller");
  core::Controller::Stats::walk(stats, v2);
  v2.section(corr, 1, "corruption set");
  write_corruption_entries(v2, set);
  v2.u64(set.entries.size());  // The mutation epoch.
  v2.section(common::snap::tag('F', 'C', 'H', 'K'), 3, "fast checker");
  v2.u64(0);  // No decision yet: no mask words.
  ckpt.bytes.replace(at, end - at, v2.take());
  reseal(ckpt.bytes);

  topology::Topology mirror_topo = small_topology();
  MitigationSimulation mirror(mirror_topo, small_config(nullptr));
  expect_rejected(mirror, events, ckpt, "controller section version mismatch");
}

// TOPO version 1 also stored the enabled-link count and the state
// version after the mask, and CORR version 1 the set's mutation epoch.
// Either section, well formed for its old version, must be rejected.
TEST(CheckpointHiddenState, TopologyAndCorruptionSetVersion1Rejected) {
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  const Checkpoint base = midday_checkpoint(events);
  {
    const std::uint32_t tag = common::snap::tag('T', 'O', 'P', 'O');
    Checkpoint ckpt = base;
    const std::size_t at = section_at(ckpt.bytes, tag, 2);
    common::snap::Reader r(std::string_view(ckpt.bytes).substr(at));
    r.section(tag, 2, "topology");
    common::snap::Writer v1;
    v1.section(tag, 1, "topology");
    v1.u64(r.u64());  // The link-count guard.
    for (std::size_t word = 0; word < topo.enabled_mask().words().size();
         ++word) {
      v1.u64(r.u64());
    }
    v1.u64(topo.link_count());  // The enabled-link count.
    v1.u64(7);                  // The state version.
    ckpt.bytes.replace(at, ckpt.bytes.size() - r.remaining() - at, v1.take());
    reseal(ckpt.bytes);
    topology::Topology mirror_topo = small_topology();
    MitigationSimulation mirror(mirror_topo, small_config(nullptr));
    expect_rejected(mirror, events, ckpt, "topology section version mismatch");
  }
  {
    const std::uint32_t tag = common::snap::tag('C', 'O', 'R', 'R');
    Checkpoint ckpt = base;
    const std::size_t at = section_at(ckpt.bytes, tag, 2);
    common::snap::Reader r(std::string_view(ckpt.bytes).substr(at));
    r.section(tag, 2, "corruption set");
    const CorruptionEntries set = read_corruption_set(r);
    common::snap::Writer v1;
    v1.section(tag, 1, "corruption set");
    write_corruption_entries(v1, set);
    v1.u64(set.entries.size());  // The mutation epoch.
    ckpt.bytes.replace(at, ckpt.bytes.size() - r.remaining() - at, v1.take());
    reseal(ckpt.bytes);
    topology::Topology mirror_topo = small_topology();
    MitigationSimulation mirror(mirror_topo, small_config(nullptr));
    expect_rejected(mirror, events, ckpt,
                    "corruption set section version mismatch");
  }
}

std::uint64_t counter_value(const obs::MetricsRegistry& registry,
                            const std::string& name) {
  for (const auto& counter : registry.snapshot().counters) {
    if (counter.name == name) return counter.value;
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

// The fast checker keeps no state and the shared path counts are filled
// cold after a restore. That fill must not show in the fast checker's
// counters: a run restored mid-way reports the same closure sizes as
// the one that kept going.
TEST(CheckpointHiddenState, RestoredRunCountsSameFastCheckerWork) {
  // Collateral-aware arrivals take the full-sweep check; this case needs
  // the incremental one.
  const auto configure = [](obs::Sink* sink) {
    ScenarioConfig config = small_config(sink);
    config.account_collateral_repair = false;
    return config;
  };
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  SinkSet fresh_sinks;
  MitigationSimulation fresh(topo, configure(&fresh_sinks.sink));
  fresh.begin_run(events);
  while (fresh.now() < common::kDay && fresh.step()) {
  }
  const Checkpoint ckpt = fresh.snapshot();
  while (fresh.step()) {
  }
  (void)fresh.finish_run();

  topology::Topology branch_topo = small_topology();
  SinkSet branch_sinks;
  MitigationSimulation branch(branch_topo, configure(&branch_sinks.sink));
  branch.restore_run(events, ckpt);
  while (branch.step()) {
  }
  (void)branch.finish_run();

  const char* name = "fastcheck.closure_switches";
  const std::uint64_t want = counter_value(fresh_sinks.registry, name);
  EXPECT_GT(want, 0u) << name;
  EXPECT_EQ(counter_value(branch_sinks.registry, name), want) << name;
}

// A set restored over one that was just used on a different timeline
// folds its own restored contents, not anything it held before.
TEST(CheckpointHiddenState, RestoredCorruptionSetFoldsItsOwnContents) {
  topology::Topology topo = small_topology();
  const core::PenaltyFunction penalty = core::PenaltyFunction::linear();

  // Timeline A: link 0 corrupting at 1e-4.
  core::CorruptionSet a;
  a.mark(common::LinkId(0), 1e-4);
  common::snap::Writer w;
  a.snapshot_to(w);
  const std::string bytes = w.take();

  // Timeline B: a different link at a different rate, its total read.
  core::CorruptionSet b;
  b.mark(common::LinkId(5), 3e-3);
  const double timeline_b = b.total_active_penalty(topo, penalty);
  ASSERT_NE(timeline_b, a.total_active_penalty(topo, penalty));

  common::snap::Reader r(bytes);
  b.restore_from(r, topo.link_count());
  EXPECT_EQ(b.total_active_penalty(topo, penalty),
            a.total_active_penalty(topo, penalty));
}

// A corruption set's restored link ids index the detection poll's
// per-link marks and size its rate array, so an id at or past the
// fabric's link count is rejected before either happens (found by
// running the resealed mutants of ResealedEditsThrowOrRestore: a SEGV in
// DetectionPipeline::handle_poll).
TEST(CheckpointMutation, CorruptionSetLinkPastTheFabricThrows) {
  core::CorruptionSet set;
  set.mark(common::LinkId(3), 1e-4);
  set.mark(common::LinkId(40), 2e-4);
  common::snap::Writer w;
  set.snapshot_to(w);
  const std::string bytes = w.take();

  core::CorruptionSet too_small;
  common::snap::Reader r(bytes);
  EXPECT_THROW(too_small.restore_from(r, 40), std::runtime_error);

  core::CorruptionSet fits;
  common::snap::Reader again(bytes);
  fits.restore_from(again, 41);
  EXPECT_EQ(fits.entries().size(), 2u);
  EXPECT_EQ(fits.rate(common::LinkId(40)), 2e-4);
}

// The penalty accountant folds the active faults' links into a
// floating-point sum and the detection pipeline starts its suspect set
// from them, so affected_links() must follow fault-id order — not
// hash-map history or link ids, which churn perturbs and which a restore
// cannot reproduce.
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

  const auto ordered_links = [](const faults::FaultInjector& inj) {
    const auto links = inj.affected_links();
    return std::vector<common::LinkId>(links.begin(), links.end());
  };
  // Faults id0, id2, id3 on links 2, 9, 1: id order, not link order.
  const std::vector<common::LinkId> want{
      common::LinkId(2), common::LinkId(9), common::LinkId(1)};
  EXPECT_EQ(ordered_links(injector), want);
  EXPECT_EQ(injector.fault(id1), nullptr);
  ASSERT_NE(injector.fault(id0), nullptr);
  ASSERT_NE(injector.fault(id3), nullptr);

  common::snap::Writer w;
  injector.snapshot_to(w);
  const std::string bytes = w.take();
  telemetry::NetworkState state2(topo, tech);
  faults::FaultInjector restored(state2);
  common::snap::Reader r(bytes);
  restored.restore_from(r);
  EXPECT_EQ(ordered_links(restored), want);
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

// --- Integrity: checksum, trailing bytes, mutations ------------------

// FNV-1a changes its state on any single-byte change and every later
// step is a bijection, so each one-bit flip anywhere in the checkpoint,
// trailer included, must fail the checksum before anything is decoded.
TEST(CheckpointIntegrity, EveryBitFlipRejected) {
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  Checkpoint ckpt = midday_checkpoint(events);
  topology::Topology mirror_topo = small_topology();
  MitigationSimulation mirror(mirror_topo, small_config(nullptr));
  std::size_t rejected = 0;
  for (std::size_t byte = 0; byte < ckpt.bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      ckpt.bytes[byte] = static_cast<char>(ckpt.bytes[byte] ^ (1 << bit));
      try {
        mirror.restore_run(events, ckpt);
      } catch (const std::runtime_error& error) {
        if (std::string(error.what()).find("checksum") != std::string::npos) {
          ++rejected;
        }
      }
      ckpt.bytes[byte] = static_cast<char>(ckpt.bytes[byte] ^ (1 << bit));
    }
  }
  EXPECT_EQ(rejected, 8 * ckpt.bytes.size());
  // The untouched bytes still restore.
  mirror.restore_run(events, ckpt);
}

TEST(CheckpointIntegrity, SeededBitFlipsWithSinkRejected) {
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  SinkSet base_sinks;
  Checkpoint ckpt = midday_checkpoint(small_config(&base_sinks.sink), events);
  topology::Topology mirror_topo = small_topology();
  SinkSet mirror_sinks;
  MitigationSimulation mirror(mirror_topo, small_config(&mirror_sinks.sink));
  common::Rng rng(2024);
  for (int flip = 0; flip < 1000; ++flip) {
    const std::size_t byte = rng.uniform_index(ckpt.bytes.size());
    const int bit = static_cast<int>(rng.uniform_index(8));
    ckpt.bytes[byte] = static_cast<char>(ckpt.bytes[byte] ^ (1 << bit));
    expect_rejected(mirror, events, ckpt, "checksum mismatch");
    ckpt.bytes[byte] = static_cast<char>(ckpt.bytes[byte] ^ (1 << bit));
  }
  Checkpoint cut = ckpt;
  cut.bytes.resize(common::snap::kTrailerBytes - 1);
  expect_rejected(mirror, events, cut, "truncated");
}

// The what-if bench's checkpoint: a 100x fault storm on the medium DCN,
// frozen at 85% of a 6-day horizon with a sink attached (about 1.0 MB).
// A sample of its bits, spread over the whole length, each fails the
// checksum.
TEST(CheckpointIntegrity, SampledBitFlipsOfWhatifCheckpointRejected) {
  const auto factory = [] { return bench::build_dcn(bench::Dcn::kMedium); };
  const common::SimDuration duration = 6 * common::kDay;
  topology::Topology trace_topo = factory();
  const auto events = bench::make_trace(
      trace_topo, 100 * bench::kFaultsPerLinkPerDay, duration, 900);
  ScenarioConfig config;
  config.mode = core::CheckerMode::kCorrOpt;
  config.capacity_fraction = 0.75;
  config.duration = duration;
  config.seed = 901;
  SinkSet base_sinks;
  config.sink = &base_sinks.sink;
  const auto branch_time = static_cast<common::SimTime>(0.85 * duration);
  Checkpoint ckpt = BranchRunner(factory).checkpoint_base(
      config, events, [branch_time](const MitigationSimulation& sim) {
        return sim.now() >= branch_time;
      });
  ASSERT_GT(ckpt.bytes.size(), std::size_t{1} << 19);

  topology::Topology mirror_topo = factory();
  SinkSet mirror_sinks;
  config.sink = &mirror_sinks.sink;
  MitigationSimulation mirror(mirror_topo, config);
  common::Rng rng(2026);
  for (int flip = 0; flip < 300; ++flip) {
    const std::size_t byte = rng.uniform_index(ckpt.bytes.size());
    const int bit = static_cast<int>(rng.uniform_index(8));
    ckpt.bytes[byte] = static_cast<char>(ckpt.bytes[byte] ^ (1 << bit));
    expect_rejected(mirror, events, ckpt, "checksum mismatch");
    ckpt.bytes[byte] = static_cast<char>(ckpt.bytes[byte] ^ (1 << bit));
  }
  // The untouched bytes still restore.
  mirror.restore_run(events, ckpt);
}

TEST(CheckpointIntegrity, TrailingByteRejected) {
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  Checkpoint ckpt = midday_checkpoint(events);
  ckpt.bytes.insert(ckpt.bytes.size() - common::snap::kTrailerBytes, 1, '\0');
  reseal(ckpt.bytes);
  topology::Topology mirror_topo = small_topology();
  MitigationSimulation mirror(mirror_topo, small_config(nullptr));
  expect_rejected(mirror, events, ckpt, "trailing bytes after the last");
}

// Hands the detection backend's payload (which opens with the section
// `backend_tag`, version `version`) to `edit`, writes it back behind a
// fresh length prefix, and reseals.
template <class Edit>
void edit_backend_payload(std::string& bytes, std::uint32_t backend_tag,
                          std::uint16_t version, Edit edit) {
  const std::size_t at = section_at(bytes, backend_tag, version);
  const std::size_t end =
      section_at(bytes, common::snap::tag('M', 'N', 'T', 'M'), 1);
  std::string payload = bytes.substr(at, end - at);
  common::snap::Writer length;
  length.u64(payload.size());
  const std::string prefix = length.take();
  ASSERT_EQ(bytes.compare(at - prefix.size(), prefix.size(), prefix), 0);
  edit(payload);
  common::snap::Writer blob;
  blob.blob(payload);
  bytes.replace(at - prefix.size(), end - at + prefix.size(), blob.take());
  reseal(bytes);
}

TEST(CheckpointIntegrity, TrailingByteInBackendPayloadRejected) {
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  Checkpoint ckpt = midday_checkpoint(events);
  edit_backend_payload(ckpt.bytes, common::snap::tag('T', 'H', 'R', 'B'), 2,
                       [](std::string& payload) { payload.push_back('\0'); });
  topology::Topology mirror_topo = small_topology();
  MitigationSimulation mirror(mirror_topo, small_config(nullptr));
  expect_rejected(mirror, events, ckpt,
                  "trailing bytes after the detection backend state");
}

// The sketch backend marks every switch of its dirty list in a
// per-switch array; an id past the fabric must be rejected, not
// written out of bounds.
TEST(CheckpointIntegrity, SketchDirtySwitchOutOfRangeThrows) {
  const ScenarioConfig config =
      backend_config(detect::BackendKind::kSketch, nullptr);
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  Checkpoint ckpt = midday_checkpoint(config, events);
  const std::size_t cells =
      static_cast<std::size_t>(detect::SketchBackend::kWidth) *
      detect::SketchBackend::kDepth;
  edit_backend_payload(
      ckpt.bytes, common::snap::tag('S', 'K', 'T', 'B'), 1,
      [&](std::string& payload) {
        // Walk to the dirty list: header, cycle, switch count, the
        // allocated sketches, then the per-direction insert counts.
        common::snap::Reader r(payload);
        r.section(common::snap::tag('S', 'K', 'T', 'B'), 1, "sketch backend");
        (void)r.u64();
        (void)r.u64();
        for (std::size_t i = r.length(); i > 0; --i) {
          (void)r.u64();
          for (std::size_t cell = 0; cell < cells; ++cell) (void)r.u64();
        }
        for (std::size_t i = r.u64(); i > 0; --i) (void)r.u64();
        const std::size_t list_at = payload.size() - r.remaining();
        for (std::size_t i = r.length(); i > 0; --i) (void)r.u32();
        const std::size_t list_end = payload.size() - r.remaining();
        common::snap::Writer list;
        list.u64(1);
        list.u32(static_cast<std::uint32_t>(topo.switch_count()));
        payload.replace(list_at, list_end - list_at, list.take());
      });
  topology::Topology mirror_topo = small_topology();
  MitigationSimulation mirror(mirror_topo, config);
  expect_rejected(mirror, events, ckpt,
                  "sketch backend dirty switch id out of range");
}

// Seeded edits of the sink-attached checkpoint of the dense scenario on
// one detection backend, each resealed so the decoder sees them: bit
// flips, varints inflated to huge values, and cuts at section
// boundaries (`backend_section` names the backend's own section). Every
// one must either restore and then run to its horizon, or throw
// std::runtime_error (while restoring or while running); under
// ASan+UBSan none may touch memory it does not own, overflow, or
// allocate without bound.
void expect_resealed_edits_throw_or_restore(detect::BackendKind kind,
                                            const char* backend_section) {
  const topology::Topology trace_topo = small_topology();
  const auto events = small_trace(trace_topo);
  SinkSet base_sinks;
  const Checkpoint base =
      midday_checkpoint(backend_config(kind, &base_sinks.sink), events);
  const std::string body(common::snap::unseal(base.bytes));

  std::vector<std::size_t> boundaries{body.size()};
  for (const char* name :
       {"SIM0", "EVTQ", "RNG0", "TOPO", "FLTS", "CTRL", "CORR", "DPIP",
        backend_section, "MNTM", "RPIP", "TCKT", "CSMP", "MTRX", "OBSS"}) {
    common::snap::Writer tag;
    tag.u64(common::snap::tag(name[0], name[1], name[2], name[3]));
    const std::size_t at = body.find(tag.take());
    ASSERT_NE(at, std::string::npos) << name;
    boundaries.push_back(at);
  }

  common::Rng rng(77);
  std::size_t restored = 0;
  std::size_t rejected = 0;
  std::size_t finished = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string bytes = body;
    switch (round % 3) {
      case 0: {
        const std::size_t byte = rng.uniform_index(bytes.size());
        bytes[byte] = static_cast<char>(bytes[byte] ^
                                        (1 << rng.uniform_index(8)));
        break;
      }
      case 1: {
        // Read whatever varint starts here and write it back with a
        // high bit set.
        const std::size_t at = rng.uniform_index(bytes.size());
        common::snap::Reader r(std::string_view(bytes).substr(at));
        std::uint64_t value = 0;
        try {
          value = r.u64();
        } catch (const std::runtime_error&) {
        }
        value |= std::uint64_t{1} << (20 + rng.uniform_index(44));
        common::snap::Writer inflated;
        inflated.u64(value);
        bytes.replace(at, bytes.size() - at - r.remaining(), inflated.take());
        break;
      }
      default:
        bytes.resize(std::min(
            bytes.size(),
            boundaries[rng.uniform_index(boundaries.size())] +
                rng.uniform_index(3)));
        break;
    }
    common::snap::seal(bytes);
    Checkpoint ckpt = base;
    ckpt.bytes = std::move(bytes);

    topology::Topology topo = small_topology();
    SinkSet sinks;
    MitigationSimulation sim(topo, backend_config(kind, &sinks.sink));
    try {
      sim.restore_run(events, ckpt);
      ++restored;
      while (sim.step()) {
      }
      sim.finish_run();
      ++finished;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  ::testing::Test::RecordProperty("restored", static_cast<int>(restored));
  ::testing::Test::RecordProperty("finished", static_cast<int>(finished));
  ::testing::Test::RecordProperty("rejected", static_cast<int>(rejected));
  EXPECT_EQ(finished + rejected, 2000u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(finished, 0u);
}

TEST(CheckpointMutation, ResealedEditsThrowOrRestore) {
  expect_resealed_edits_throw_or_restore(detect::BackendKind::kThreshold,
                                         "THRB");
}

TEST(CheckpointMutation, ResealedEditsThrowOrRestoreOnVoting) {
  expect_resealed_edits_throw_or_restore(detect::BackendKind::kVoting,
                                         "VOTB");
}

TEST(CheckpointMutation, ResealedEditsThrowOrRestoreOnSketch) {
  expect_resealed_edits_throw_or_restore(detect::BackendKind::kSketch,
                                         "SKTB");
}

// Rewrites the first pending kRepair event of a sealed checkpoint
// through `edit` (its due time, link and ticket) and reseals it.
void edit_pending_repair(std::string& bytes,
                         const std::function<void(Event&)>& edit) {
  const std::uint32_t evtq = common::snap::tag('E', 'V', 'T', 'Q');
  const std::size_t at = section_at(bytes, evtq, 1);
  common::snap::Reader r(std::string_view(bytes).substr(at));
  r.section(evtq, 1, "event queue");
  for (std::size_t i = r.length(); i > 0; --i) {
    const std::size_t entry_at = bytes.size() - r.remaining();
    Event event;
    r.i64(event.due);
    r.u8(event.type);
    r.id(event.link);
    r.id(event.ticket);
    r.i64(event.attempt);
    const std::uint64_t seq = r.u64();
    if (event.type != EventType::kRepair) continue;
    const std::size_t entry_end = bytes.size() - r.remaining();
    edit(event);
    common::snap::Writer w;
    w.i64(event.due);
    w.u8(event.type);
    w.id(event.link);
    w.id(event.ticket);
    w.i64(event.attempt);
    w.u64(seq);
    bytes.replace(entry_at, entry_end - entry_at, w.take());
    reseal(bytes);
    return;
  }
  ADD_FAILURE() << "the checkpoint holds no pending repair";
}

// A restored event queue may only name what the restored state holds:
// a pending repair on a link past the fabric would index the repair
// pipeline's per-link arrays out of bounds when it fires, one on a
// closed ticket would look up a ticket that is not there, and one due
// before the checkpoint would run time backwards.
TEST(CheckpointMutation, PendingRepairOutsideRestoredStateThrows) {
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  const Checkpoint base = midday_checkpoint(events);
  const SimTime at = base.time;
  const common::LinkId past_fabric(
      static_cast<common::LinkId::underlying_type>(topo.link_count()));
  const std::vector<std::pair<std::function<void(Event&)>, std::string>>
      cases = {
          {[&](Event& e) { e.link = past_fabric; },
           "pending event names a link past the fabric"},
          {[](Event& e) {
             e.ticket = common::TicketId(e.ticket.value() + 1000000);
           },
           "pending repair names a ticket that is not open"},
          {[at](Event& e) { e.due = at - 1; },
           "pending event due before the checkpoint"},
      };
  for (const auto& [edit, what] : cases) {
    Checkpoint ckpt = base;
    edit_pending_repair(ckpt.bytes, edit);
    topology::Topology mirror_topo = small_topology();
    MitigationSimulation mirror(mirror_topo, small_config(nullptr));
    expect_rejected(mirror, events, ckpt, what);
  }
}

// The fault injector's section, decoded in FaultInjector::walk's field
// order so a test can edit it and splice it back.
struct FaultSection {
  std::vector<faults::Fault> faults;  // Id order.
  std::uint64_t next_id = 0;
  std::int64_t now = 0;
};

// Rewrites the FLTS section of a sealed checkpoint through `edit` and
// reseals it.
void edit_faults(std::string& bytes,
                 const std::function<void(FaultSection&)>& edit) {
  const std::uint32_t flts = common::snap::tag('F', 'L', 'T', 'S');
  const std::size_t at = section_at(bytes, flts, 1);
  common::snap::Reader r(std::string_view(bytes).substr(at));
  r.section(flts, 1, "fault injector");
  FaultSection section;
  section.faults.resize(r.length());
  for (faults::Fault& fault : section.faults) {
    r.id(fault.id);
    r.u8(fault.cause);
    r.ids(fault.links);
    r.seq(fault.effects, [&r](faults::DirectionEffect& e) {
      r.id(e.direction);
      r.f64(e.extra_attenuation_db);
      r.f64(e.tx_power_delta_db);
      r.f64(e.tx_decay_db_per_day);
      r.f64(e.corruption_rate);
    });
    r.seq(fault.fixing_actions, [&r](faults::RepairAction& a) { r.u8(a); });
    r.i64(fault.onset);
  }
  r.u64(section.next_id);
  r.i64(section.now);
  const std::size_t end = bytes.size() - r.remaining();

  edit(section);
  common::snap::Writer w;
  w.section(flts, 1, "fault injector");
  w.seq(section.faults, [&w](const faults::Fault& fault) {
    w.id(fault.id);
    w.u8(fault.cause);
    w.ids(fault.links);
    w.seq(fault.effects, [&w](const faults::DirectionEffect& e) {
      w.id(e.direction);
      w.f64(e.extra_attenuation_db);
      w.f64(e.tx_power_delta_db);
      w.f64(e.tx_decay_db_per_day);
      w.f64(e.corruption_rate);
    });
    w.seq(fault.fixing_actions, [&w](faults::RepairAction a) { w.u8(a); });
    w.i64(fault.onset);
  });
  w.u64(section.next_id);
  w.i64(section.now);
  bytes.replace(at, end - at, w.take());
  reseal(bytes);
}

// A restored active fault may only name what the fabric holds: the
// penalty accountant indexes per-link arrays by its links, and clearing
// or advancing it rebuilds its effects' directions, both unchecked. Its
// id must also lie below the restored id counter, or the next injected
// fault would collide with it. The injector's decay clock may not lie
// past the checkpoint: advance() only runs it forward.
TEST(CheckpointMutation, FaultIdsPastTheirCountsThrow) {
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  const Checkpoint base = midday_checkpoint(events);
  const std::vector<std::pair<std::function<void(FaultSection&)>, std::string>>
      cases = {
          {[&](FaultSection& s) {
             s.faults.front().links.front() = common::LinkId(
                 static_cast<common::LinkId::underlying_type>(
                     topo.link_count()));
           },
           "fault names a link past the fabric"},
          {[&](FaultSection& s) {
             s.faults.back().effects.front().direction = common::DirectionId(
                 static_cast<common::DirectionId::underlying_type>(
                     topo.direction_count()));
           },
           "fault effect names a direction past the fabric"},
          {[](FaultSection& s) {
             s.next_id = s.faults.back().id.value();
           },
           "active fault id at or past the next fault id"},
          {[&base](FaultSection& s) { s.now = base.time + 1; },
           "fault injector clock outside [0, checkpoint time]"},
          {[](FaultSection& s) { s.now = -1; },
           "fault injector clock outside [0, checkpoint time]"},
      };
  for (const auto& test_case : cases) {
    Checkpoint ckpt = base;
    edit_faults(ckpt.bytes, [&test_case](FaultSection& s) {
      ASSERT_FALSE(s.faults.empty()) << "the checkpoint holds no fault";
      ASSERT_FALSE(s.faults.front().links.empty());
      ASSERT_FALSE(s.faults.back().effects.empty());
      test_case.first(s);
    });
    topology::Topology mirror_topo = small_topology();
    MitigationSimulation mirror(mirror_topo, small_config(nullptr));
    expect_rejected(mirror, events, ckpt, test_case.second);
  }
  // The unedited splice still restores: the decoding above is faithful.
  Checkpoint same = base;
  edit_faults(same.bytes, [](FaultSection&) {});
  EXPECT_EQ(same.bytes, base.bytes);
}

// A restored fault's effects are folded into its directions' Tx power,
// attenuation and corruption rate, which feed the optical model and
// Rng::poisson's `mean >= 0` precondition: an effect that is not finite
// must be rejected, and so must finite effects whose fold overflows.
TEST(CheckpointMutation, FaultEffectNotFiniteThrows) {
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  const Checkpoint base = midday_checkpoint(events);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using Edit = std::function<void(faults::DirectionEffect&)>;
  const std::vector<Edit> edits = {
      [nan](faults::DirectionEffect& e) { e.extra_attenuation_db = nan; },
      [inf](faults::DirectionEffect& e) { e.extra_attenuation_db = inf; },
      [inf](faults::DirectionEffect& e) { e.tx_power_delta_db = -inf; },
      [nan](faults::DirectionEffect& e) { e.tx_power_delta_db = nan; },
      [inf](faults::DirectionEffect& e) { e.tx_decay_db_per_day = inf; },
      [nan](faults::DirectionEffect& e) { e.tx_decay_db_per_day = nan; },
  };
  for (std::size_t k = 0; k < edits.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "edit " << k);
    Checkpoint ckpt = base;
    edit_faults(ckpt.bytes, [&](FaultSection& s) {
      ASSERT_FALSE(s.faults.empty()) << "the checkpoint holds no fault";
      ASSERT_FALSE(s.faults.back().effects.empty());
      edits[k](s.faults.back().effects.back());
    });
    topology::Topology mirror_topo = small_topology();
    MitigationSimulation mirror(mirror_topo, small_config(nullptr));
    expect_rejected(mirror, events, ckpt,
                    "fault effect attenuation, Tx delta or decay not finite");
  }
  // Two finite attenuations on one direction that sum past DBL_MAX.
  Checkpoint ckpt = base;
  edit_faults(ckpt.bytes, [](FaultSection& s) {
    ASSERT_FALSE(s.faults.empty()) << "the checkpoint holds no fault";
    std::vector<faults::DirectionEffect>& effects = s.faults.back().effects;
    ASSERT_FALSE(effects.empty());
    effects.back().extra_attenuation_db =
        std::numeric_limits<double>::max();
    effects.push_back(effects.back());
  });
  topology::Topology mirror_topo = small_topology();
  MitigationSimulation mirror(mirror_topo, small_config(nullptr));
  expect_rejected(mirror, events, ckpt,
                  "rebuilt Tx power or attenuation not finite");
}

// Re-encodes the body of the section `tag` (version `version`) of a
// sealed checkpoint: `edit` reads a prefix of the body's fields from `r`
// and writes their edited form to `w`; the bytes after that prefix stay
// as they are. Reseals.
void edit_section(
    std::string& bytes, std::uint32_t tag, std::uint16_t version,
    const std::function<void(common::snap::Reader&, common::snap::Writer&)>&
        edit) {
  common::snap::Writer header;
  header.section(tag, version, "");
  const std::size_t body =
      section_at(bytes, tag, version) + header.take().size();
  common::snap::Reader r(std::string_view(bytes).substr(body));
  common::snap::Writer w;
  edit(r, w);
  const std::size_t end = bytes.size() - r.remaining();
  bytes.replace(body, end - body, w.take());
  reseal(bytes);
}

// A restored pending detection names a link handle_poll marks in a
// per-link array, and a restored maintenance window names the peers it
// re-enables through Topology::set_enabled; both index without a check,
// so the decoder must reject any id past the fabric.
TEST(CheckpointMutation, DetectionAndMaintenanceLinksPastTheFabricThrow) {
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  const Checkpoint base = midday_checkpoint(events);
  const common::LinkId past_fabric(
      static_cast<common::LinkId::underlying_type>(topo.link_count()));
  using Pending = std::map<common::LinkId, SimTime>;
  using Maintained = std::map<common::LinkId, std::vector<common::LinkId>>;
  const auto edit_pending = [](const std::function<void(Pending&)>& edit) {
    return [edit](common::snap::Reader& r, common::snap::Writer& w) {
      Pending pending;
      r.entries(pending, [&r](common::LinkId& link, SimTime& onset) {
        r.id(link);
        r.i64(onset);
      });
      edit(pending);
      w.entries(pending, [&w](common::LinkId link, SimTime onset) {
        w.id(link);
        w.i64(onset);
      });
    };
  };
  const auto edit_maintained =
      [](const std::function<void(Maintained&)>& edit) {
        return [edit](common::snap::Reader& r, common::snap::Writer& w) {
          Maintained maintained;
          r.entries(maintained, [&r](common::LinkId& link,
                                     std::vector<common::LinkId>& taken) {
            r.id(link);
            r.ids(taken);
          });
          edit(maintained);
          w.entries(maintained, [&w](common::LinkId link,
                                     const std::vector<common::LinkId>& taken) {
            w.id(link);
            w.ids(taken);
          });
        };
      };
  const std::uint32_t dpip = common::snap::tag('D', 'P', 'I', 'P');
  const std::uint32_t mntm = common::snap::tag('M', 'N', 'T', 'M');
  struct Case {
    std::uint32_t tag;
    std::function<void(common::snap::Reader&, common::snap::Writer&)> edit;
    std::string what;
  };
  const std::vector<Case> cases = {
      {dpip,
       edit_pending([&](Pending& p) { p.emplace(past_fabric, base.time); }),
       "pending detection names a link past the fabric"},
      {mntm,
       edit_maintained([&](Maintained& m) { m[past_fabric] = {}; }),
       "maintained link past the fabric"},
      {mntm,
       edit_maintained([&](Maintained& m) {
         m[common::LinkId(0)].push_back(past_fabric);
       }),
       "maintained peer past the fabric"},
  };
  for (const Case& test_case : cases) {
    SCOPED_TRACE(test_case.what);
    Checkpoint ckpt = base;
    edit_section(ckpt.bytes, test_case.tag, 1, test_case.edit);
    topology::Topology mirror_topo = small_topology();
    MitigationSimulation mirror(mirror_topo, small_config(nullptr));
    expect_rejected(mirror, events, ckpt, test_case.what);
  }
  // The unedited splices still restore: the decoding above is faithful.
  Checkpoint same = base;
  edit_section(same.bytes, dpip, 1, edit_pending([](Pending&) {}));
  edit_section(same.bytes, mntm, 1, edit_maintained([](Maintained&) {}));
  EXPECT_EQ(same.bytes, base.bytes);
}

// The topology restores only its mask: the enabled-link count is the
// mask's popcount, never a stored number an edit could desync from it.
// The capacity sampler records link_count() - enabled_link_count(), so
// a resealed mask edit must show in the first sample after the restore.
TEST(CheckpointMutation, TopologyMaskEditRecountsEnabledLinks) {
  const std::vector<trace::TraceEvent> no_faults;
  topology::Topology driver_topo = small_topology();
  MitigationSimulation driver(driver_topo, small_config(nullptr));
  driver.begin_run(no_faults);
  Checkpoint ckpt = driver.snapshot();
  ASSERT_TRUE(driver_topo.is_enabled(common::LinkId(0)));
  // Disable link 0: clear bit 0 of the first mask word.
  edit_section(ckpt.bytes, common::snap::tag('T', 'O', 'P', 'O'), 2,
               [](common::snap::Reader& r, common::snap::Writer& w) {
                 w.u64(r.u64());  // The link-count guard.
                 w.u64(r.u64() & ~std::uint64_t{1});
               });

  topology::Topology mirror_topo = small_topology();
  MitigationSimulation mirror(mirror_topo, small_config(nullptr));
  mirror.restore_run(no_faults, ckpt);
  EXPECT_FALSE(mirror_topo.is_enabled(common::LinkId(0)));
  std::size_t enabled = 0;
  for (std::size_t i = 0; i < mirror_topo.link_count(); ++i) {
    enabled += mirror_topo.is_enabled(common::LinkId(
                   static_cast<common::LinkId::underlying_type>(i)))
                   ? 1
                   : 0;
  }
  EXPECT_EQ(enabled, mirror_topo.link_count() - 1);
  EXPECT_EQ(mirror_topo.enabled_link_count(), enabled);
  while (mirror.step()) {
  }
  const SimulationMetrics metrics = mirror.finish_run();
  ASSERT_FALSE(metrics.disabled_links.empty());
  EXPECT_EQ(metrics.disabled_links.front().value, 1.0);
}

// A restored ticket's recommendation reaches the technician's switch
// over RepairAction, and a restored fault effect's corruption rate is
// folded into the direction's rate when the fault clears: a byte past
// the last action, or a rate outside [0, 1], must be rejected.
TEST(CheckpointMutation, TicketActionAndFaultRateOutOfRangeThrow) {
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  const Checkpoint base = midday_checkpoint(events);
  const std::uint32_t tckt = common::snap::tag('T', 'C', 'K', 'T');
  // Open tickets, in TicketQueue::walk's field order; -1 = none.
  using Tickets = std::map<common::TicketId, int>;
  const auto edit_tickets = [](const std::function<void(Tickets&)>& edit) {
    return [edit](common::snap::Reader& r, common::snap::Writer& w) {
      Tickets tickets;
      r.entries(tickets, [&r](common::TicketId& id, int& action) {
        r.id(id);
        action = r.boolean() ? r.u8() : -1;
      });
      ASSERT_FALSE(tickets.empty()) << "the checkpoint holds no ticket";
      edit(tickets);
      w.entries(tickets, [&w](common::TicketId id, int action) {
        w.id(id);
        w.boolean(action >= 0);
        if (action >= 0) w.u8(static_cast<std::uint8_t>(action));
      });
    };
  };
  {
    Checkpoint ckpt = base;
    edit_section(ckpt.bytes, tckt, 2, edit_tickets([](Tickets& tickets) {
                   tickets.begin()->second =
                       static_cast<int>(faults::kAllRepairActions.size());
                 }));
    topology::Topology mirror_topo = small_topology();
    MitigationSimulation mirror(mirror_topo, small_config(nullptr));
    expect_rejected(mirror, events, ckpt,
                    "ticket recommendation past the last repair action");
  }
  for (const double rate :
       {std::numeric_limits<double>::quiet_NaN(), -1e-9, 1.5}) {
    SCOPED_TRACE(::testing::Message() << "rate " << rate);
    Checkpoint ckpt = base;
    edit_faults(ckpt.bytes, [rate](FaultSection& s) {
      ASSERT_FALSE(s.faults.empty()) << "the checkpoint holds no fault";
      ASSERT_FALSE(s.faults.back().effects.empty());
      s.faults.back().effects.back().corruption_rate = rate;
    });
    topology::Topology mirror_topo = small_topology();
    MitigationSimulation mirror(mirror_topo, small_config(nullptr));
    expect_rejected(mirror, events, ckpt,
                    "fault effect corruption rate outside [0, 1]");
  }
  // The unedited splice still restores: the decoding above is faithful.
  Checkpoint same = base;
  edit_section(same.bytes, tckt, 2, edit_tickets([](Tickets&) {}));
  EXPECT_EQ(same.bytes, base.bytes);
}

// RepairPipeline::open_ticket runs ++attempts_[link] on a restored
// count, so INT_MAX would overflow it; a negative count is no count of
// attempts either.
TEST(CheckpointMutation, RepairAttemptCountOutOfRangeThrows) {
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  const Checkpoint base = midday_checkpoint(events);
  const std::uint32_t rpip = common::snap::tag('R', 'P', 'I', 'P');
  // Rewrites the first link's attempt count (after the link count).
  const auto set_first_attempt = [](std::optional<int> value) {
    return [value](common::snap::Reader& r, common::snap::Writer& w) {
      w.u64(r.u64());
      const std::int64_t attempt = r.i64();
      w.i64(value.value_or(static_cast<int>(attempt)));
    };
  };
  for (const int attempt : {std::numeric_limits<int>::max(), -1}) {
    SCOPED_TRACE(::testing::Message() << "attempt " << attempt);
    Checkpoint ckpt = base;
    edit_section(ckpt.bytes, rpip, 1, set_first_attempt(attempt));
    topology::Topology mirror_topo = small_topology();
    MitigationSimulation mirror(mirror_topo, small_config(nullptr));
    expect_rejected(mirror, events, ckpt,
                    "repair attempt count outside [0, INT_MAX)");
  }
  // The unedited splice still restores: the decoding above is faithful.
  Checkpoint same = base;
  edit_section(same.bytes, rpip, 1, set_first_attempt(std::nullopt));
  EXPECT_EQ(same.bytes, base.bytes);
}

// ThresholdBackend::observe runs ++window.polls and completes a window
// when it reaches kWindowPolls, so a restored count must lie below it:
// one at or past it never completes as the window it claims to be, and
// INT_MAX would overflow.
TEST(CheckpointMutation, ThresholdWindowPollsOutOfRangeThrows) {
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  const Checkpoint base = midday_checkpoint(events);
  const std::uint32_t thrb = common::snap::tag('T', 'H', 'R', 'B');
  // Rewrites the first direction's window poll count (after the section
  // header, the direction count and that window's packets and drops).
  const auto set_first_polls = [thrb](std::optional<int> value) {
    return [thrb, value](std::string& payload) {
      common::snap::Reader r(payload);
      common::snap::Writer w;
      r.section(thrb, 2, "threshold backend");
      w.section(thrb, 2, "threshold backend");
      w.u64(r.u64());
      w.u64(r.u64());
      w.u64(r.u64());
      const std::int64_t polls = r.i64();
      w.i64(value.value_or(static_cast<int>(polls)));
      payload = w.take() + payload.substr(payload.size() - r.remaining());
    };
  };
  for (const int polls : {detect::ThresholdBackend::kWindowPolls, -1,
                          std::numeric_limits<int>::max()}) {
    SCOPED_TRACE(::testing::Message() << "polls " << polls);
    Checkpoint ckpt = base;
    edit_backend_payload(ckpt.bytes, thrb, 2, set_first_polls(polls));
    topology::Topology mirror_topo = small_topology();
    MitigationSimulation mirror(mirror_topo, small_config(nullptr));
    expect_rejected(mirror, events, ckpt,
                    "threshold backend window polls outside [0, kWindowPolls)");
  }
  // The unedited splice still restores: the decoding above is faithful.
  Checkpoint same = base;
  edit_backend_payload(same.bytes, thrb, 2, set_first_polls(std::nullopt));
  EXPECT_EQ(same.bytes, base.bytes);
}

// VotingBackend::decode takes the top-voted link and drops the bad paths
// through it until no link has kMinVotes votes left, so it ends only if
// a link's votes are exactly the bad paths through it; a restored vote
// with no bad path behind it would loop there forever. Each bad path's
// links must also lie in the fabric.
TEST(CheckpointMutation, VotingVotesOutsideBadPathsThrow) {
  topology::Topology topo = small_topology();
  const auto events = small_trace(topo);
  const ScenarioConfig config =
      backend_config(detect::BackendKind::kVoting, nullptr);
  const Checkpoint base = midday_checkpoint(config, events);
  const std::uint32_t votb = common::snap::tag('V', 'O', 'T', 'B');
  using Paths = std::vector<std::vector<common::LinkId>>;
  // Re-encodes the payload after `edit` has seen the link count and
  // changed the per-link votes or the bad paths.
  const auto rewrite = [votb](auto edit) {
    return [votb, edit](std::string& payload) {
      common::snap::Reader r(payload);
      common::snap::Writer w;
      r.section(votb, 1, "voting backend");
      w.section(votb, 1, "voting backend");
      w.u64(r.u64());
      const std::uint64_t links = r.u64();
      w.u64(links);
      std::vector<std::uint64_t> votes(links);
      for (std::uint64_t& v : votes) v = r.u64();
      std::vector<std::uint64_t> flows(links);
      for (std::uint64_t& f : flows) f = r.u64();
      Paths paths;
      r.seq(paths, [&r](std::vector<common::LinkId>& path) { r.ids(path); });
      edit(links, votes, paths);
      for (const std::uint64_t v : votes) w.u64(v);
      for (const std::uint64_t f : flows) w.u64(f);
      w.seq(paths,
            [&w](const std::vector<common::LinkId>& path) { w.ids(path); });
      payload = w.take() + payload.substr(payload.size() - r.remaining());
    };
  };
  const auto edited = [&](const auto& edit) {
    Checkpoint ckpt = base;
    edit_backend_payload(ckpt.bytes, votb, 1, rewrite(edit));
    return ckpt;
  };
  {
    topology::Topology mirror_topo = small_topology();
    MitigationSimulation mirror(mirror_topo, config);
    expect_rejected(
        mirror, events,
        edited([](std::uint64_t, std::vector<std::uint64_t>& votes, Paths&) {
          ++votes[0];
        }),
        "voting backend votes disagree with its bad paths");
  }
  {
    topology::Topology mirror_topo = small_topology();
    MitigationSimulation mirror(mirror_topo, config);
    expect_rejected(mirror, events,
                    edited([](std::uint64_t links, std::vector<std::uint64_t>&,
                              Paths& paths) {
                      paths.push_back({common::LinkId(
                          static_cast<std::uint32_t>(links))});
                    }),
                    "voting backend bad path link id out of range");
  }
  {
    // A bad path with its vote is a state the backend can reach: it
    // restores and runs to its horizon.
    topology::Topology mirror_topo = small_topology();
    MitigationSimulation mirror(mirror_topo, config);
    mirror.restore_run(
        events,
        edited([](std::uint64_t, std::vector<std::uint64_t>& votes,
                  Paths& paths) {
          paths.push_back({common::LinkId(0)});
          ++votes[0];
        }));
    while (mirror.step()) {
    }
    mirror.finish_run();
  }
  // The unedited splice is the checkpoint: the decoding above is faithful.
  Checkpoint same = base;
  edit_backend_payload(same.bytes, votb, 1,
                       rewrite([](std::uint64_t, std::vector<std::uint64_t>&,
                                  Paths&) {}));
  EXPECT_EQ(same.bytes, base.bytes);
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
