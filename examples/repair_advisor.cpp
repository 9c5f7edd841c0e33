// repair_advisor: the operator-facing view of CorrOpt's recommendation
// engine (Section 5.2).
//
// Generates a batch of corrupting links with randomly drawn root causes,
// then prints each maintenance ticket the way the deployed engine renders
// it: the link, its optical readings classified High/Low against the
// technology thresholds, the recommended action and the rationale —
// followed by whether the recommendation would actually have fixed the
// underlying fault (known here because the faults are synthetic).
//
// Run: ./build/examples/repair_advisor [tickets] [seed]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/rng.h"
#include "corropt/recommendation.h"
#include "faults/fault_factory.h"
#include "faults/injector.h"
#include "telemetry/network_state.h"
#include "topology/fat_tree.h"

namespace {

const char* power_class(bool low) { return low ? "LOW " : "HIGH"; }

}  // namespace

int main(int argc, char** argv) {
  using namespace corropt;

  const int tickets = argc > 1 ? std::atoi(argv[1]) : 8;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                      : 2017;

  topology::Topology topo = topology::build_fat_tree(16);
  telemetry::NetworkState state(topo, telemetry::default_tech());
  faults::FaultInjector injector(state);
  common::Rng rng(seed);
  faults::FaultFactory factory(topo, {}, rng);
  core::RecommendationEngine engine(state);

  int correct = 0;
  for (int t = 0; t < tickets; ++t) {
    const common::LinkId link(static_cast<common::LinkId::underlying_type>(
        rng.uniform_index(topo.link_count())));
    if (!injector.faults_on_link(link).empty()) continue;
    const common::FaultId fault_id =
        injector.inject(factory.make_random_fault(link, 0));
    const faults::Fault* fault = injector.fault(fault_id);

    const auto up = topology::direction_id(link, topology::LinkDirection::kUp);
    const auto down =
        topology::direction_id(link, topology::LinkDirection::kDown);

    std::printf("== ticket %d: link %u (%s -> %s) ==\n", t + 1, link.value(),
                topo.switch_at(topo.link_at(link).lower).name.c_str(),
                topo.switch_at(topo.link_at(link).upper).name.c_str());
    std::printf("   corruption: up %.2e / down %.2e\n",
                state.corruption_rate(up), state.corruption_rate(down));
    std::printf("   optics: Tx %s (%+.1f dBm) -> Rx %s (%+.1f dBm)\n",
                power_class(state.tx_is_low(up)), state.tx_power_dbm(up),
                power_class(state.rx_is_low(up)), state.rx_power_dbm(up));
    std::printf("           Rx %s (%+.1f dBm) <- Tx %s (%+.1f dBm)\n",
                power_class(state.rx_is_low(down)), state.rx_power_dbm(down),
                power_class(state.tx_is_low(down)), state.tx_power_dbm(down));

    const core::Recommendation rec = engine.recommend_link(link, false);
    std::printf("   recommendation: %s\n",
                std::string(faults::to_string(rec.action)).c_str());
    std::printf("   rationale:      %s\n", rec.rationale);

    const bool would_fix = fault->fixed_by(rec.action);
    correct += would_fix;
    std::printf("   ground truth:   %s  -> recommendation %s\n\n",
                std::string(faults::to_string(fault->cause)).c_str(),
                would_fix ? "fixes it" : "would NOT fix it");
    injector.clear(fault_id);  // Next ticket sees a clean network.
  }
  std::printf("recommendation would fix the fault on the first visit for "
              "%d of %d tickets\n",
              correct, tickets);
  return 0;
}
