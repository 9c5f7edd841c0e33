// Quickstart: the CorrOpt pipeline end to end on a small fat-tree.
//
//   1. Build a k=8 fat-tree (256 switch-to-switch optical links).
//   2. Inject a connector-contamination fault on one link.
//   3. Let the controller detect it, decide whether disabling is safe,
//      and produce a repair recommendation for the ticket.
//   4. Repair the link and watch the controller re-enable it.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart

#include <cstdio>

#include "common/rng.h"
#include "corropt/controller.h"
#include "corropt/recommendation.h"
#include "faults/fault_factory.h"
#include "faults/injector.h"
#include "telemetry/network_state.h"
#include "topology/fat_tree.h"

int main() {
  using namespace corropt;

  // 1. The network.
  topology::Topology topo = topology::build_fat_tree(8);
  std::printf("topology: %zu switches, %zu optical links, %d levels\n",
              topo.switch_count(), topo.link_count(), topo.level_count());

  // Physical state (optics + counters) and the CorrOpt controller with a
  // 75%% per-ToR capacity constraint.
  telemetry::NetworkState state(topo, telemetry::default_tech());
  core::ControllerConfig config;
  config.mode = core::CheckerMode::kCorrOpt;
  config.capacity_fraction = 0.75;
  core::Controller controller(topo, config);
  controller.set_ticket_callback([](common::LinkId link) {
    std::printf("  -> maintenance ticket issued for link %u\n", link.value());
  });

  // 2. A dirty connector starts corrupting packets on link 42.
  common::Rng rng(7);
  faults::FaultMixParams mix;
  mix.p_back_reflection = 0.0;
  faults::FaultFactory factory(topo, mix, rng);
  faults::FaultInjector injector(state);
  const common::LinkId link(42);
  const common::FaultId fault = injector.inject(factory.make_fault(
      link, faults::RootCause::kConnectorContamination, 0));

  const double rate = state.link_corruption_rate(link);
  std::printf("\nlink %u corrupting at loss rate %.2e\n", link.value(), rate);

  // 3. Detection: the fast checker verifies every ToR keeps >= 75% of its
  // spine paths with the link off, then disables it.
  const bool disabled = controller.on_corruption_detected(link, rate);
  std::printf("fast checker decision: %s\n",
              disabled ? "safe to disable -- link disabled"
                       : "kept active (capacity constraint)");

  // The recommendation engine reads the optical symptoms (Algorithm 1).
  core::RecommendationEngine engine(state);
  const core::Recommendation rec = engine.recommend_link(link, false);
  std::printf("repair recommendation: %s\n  rationale: %s\n",
              std::string(faults::to_string(rec.action)).c_str(),
              rec.rationale);

  // 4. The technician cleans the fiber; corruption is gone and the
  // controller re-enables the link (and re-optimizes globally).
  const bool fixed = injector.try_repair(fault, rec.action);
  std::printf("\nrepair with recommended action: %s\n",
              fixed ? "success" : "failed");
  controller.on_link_repaired(link);
  std::printf("link %u enabled again: %s\n", link.value(),
              topo.is_enabled(link) ? "yes" : "no");
  std::printf("active corruption penalty: %g\n", controller.active_penalty());
  return 0;
}
