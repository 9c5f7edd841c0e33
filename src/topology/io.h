// Topology serialization.
//
// Operators do not build their DCN in code: the controller loads the
// topology from the network-state service. This module round-trips a
// Topology through a simple two-section CSV format so experiments can be
// run against externally described networks and degraded states can be
// checkpointed:
//
//   switch,<id>,<level>,<pod>,<name>
//   link,<id>,<lower>,<upper>,<enabled>,<breakout_group>
//
// Rows must be grouped switches-first; ids must be dense and ascending
// (the natural output of write_topology).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "topology/topology.h"

namespace corropt::topology {

void write_topology(std::ostream& out, const Topology& topo);

// Parses what write_topology emits. Returns std::nullopt (and sets
// `error` when provided) on malformed input: unknown row kinds,
// non-dense ids, a level not below the number of switch rows, a pod or
// breakout group outside int (or a group below -1), links referencing
// unknown switches or non-adjacent levels.
[[nodiscard]] std::optional<Topology> read_topology(
    std::istream& in, std::string* error = nullptr);

}  // namespace corropt::topology
