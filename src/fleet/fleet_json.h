// Deterministic BENCH_fleet.json serialization.
//
// Writes a corropt-bench-metrics/1 document (common::begin_document's
// envelope) with one scenarios[] row per DC (canonical key order) plus a
// top-level "fleet" aggregate object — schema documented in
// EXPERIMENTS.md. Unlike bench::write_metrics_json, the envelope carries
// no "threads" member and the rows no "wall_seconds": those are the two
// sanctioned non-deterministic fields, and omitting them makes the whole
// file byte-identical for any thread count and submission order.
// bench_fleet hands write_fleet_json to bench::write_output, the one
// writer of every bench file; tests/fleet_test.cc and perfbench's
// fleet_steady serialize through fleet_json_string, the same code, so
// their digest equality is a statement about the shipped bytes.
#pragma once

#include <iosfwd>
#include <string>

#include "fleet/fleet_campaign.h"

namespace corropt::fleet {

// Serializes the result to `out`; byte-deterministic given equal results.
void write_fleet_json(std::ostream& out, const FleetResult& result,
                      const std::string& generator);

// Serializes to a string (tests digest this).
[[nodiscard]] std::string fleet_json_string(const FleetResult& result,
                                            const std::string& generator);

}  // namespace corropt::fleet
