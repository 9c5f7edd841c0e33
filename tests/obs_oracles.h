// Text reference for the obs identity digest.
//
// obs::digest folds the codec bytes of a journal and a registry
// snapshot. The JSONL and JSON text below is an independent view of the
// same capture, the one `--obs` files hold: two captures must compare
// equal through both or through neither. The golden fixture
// (tests/golden/sim_equivalence.txt) pins digests of these bytes.
#pragma once

#include <span>
#include <sstream>
#include <string>
#include <string_view>

#include "common/json.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace corropt::testing {

// The deterministic bytes of an obs capture: the journal as JSONL, one
// event a line (tagged with `scenario` when it is not empty), and the
// registry snapshot as one JSON object without its wall-clock timers.
struct ObsBytes {
  std::string journal;
  std::string metrics;

  bool operator==(const ObsBytes&) const = default;
};

inline ObsBytes obs_bytes(std::span<const obs::Event> journal,
                          const obs::MetricsSnapshot& metrics,
                          std::string_view scenario = {}) {
  std::ostringstream events;
  for (const obs::Event& event : journal) {
    obs::write_event_jsonl(events, event, scenario);
    events << '\n';
  }
  std::ostringstream registry;
  common::JsonWriter json(registry);
  json.begin_object();
  metrics.write_json(json, /*include_timers=*/false);
  json.end_object();
  return {events.str(), registry.str()};
}

}  // namespace corropt::testing
