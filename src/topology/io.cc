#include "topology/io.h"

#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"

namespace corropt::topology {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool fits_int(long long value) {
  return value >= std::numeric_limits<int>::min() &&
         value <= std::numeric_limits<int>::max();
}

bool parse_int(const std::string& field, long long* out) {
  try {
    std::size_t used = 0;
    *out = std::stoll(field, &used);
    return used == field.size();
  } catch (...) {
    return false;
  }
}

}  // namespace

void write_topology(std::ostream& out, const Topology& topo) {
  common::CsvWriter csv(out);
  for (const Switch& sw : topo.switches()) {
    csv.row("switch", sw.id.value(), sw.level, sw.pod, sw.name);
  }
  for (const Link& link : topo.links()) {
    csv.row("link", link.id.value(), link.lower.value(), link.upper.value(),
            topo.is_enabled(link.id) ? 1 : 0, link.breakout_group);
  }
}

std::optional<Topology> read_topology(std::istream& in, std::string* error) {
  // Switch rows are held back until the switch block ends, so that every
  // level can be checked against the number of switches before
  // Topology::add_switch sizes its per-level index by it: a few short
  // rows cannot force a large allocation.
  struct SwitchRow {
    int level = 0;
    int pod = 0;
    std::string name;
    std::string at;
  };
  std::vector<SwitchRow> switches;
  Topology topo;
  const auto add_switches = [&]() -> bool {
    for (const SwitchRow& row : switches) {
      if (static_cast<std::size_t>(row.level) >= switches.size()) {
        return fail(error, "switch level " + std::to_string(row.level) +
                               " not below the switch count " +
                               std::to_string(switches.size()) + row.at);
      }
    }
    for (SwitchRow& row : switches) {
      topo.add_switch(row.level, std::move(row.name), row.pod);
    }
    switches.clear();
    return true;
  };

  std::string line;
  std::size_t line_number = 0;
  bool seen_link = false;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::vector<std::string> fields = common::parse_csv_row(line);
    const std::string at = " at line " + std::to_string(line_number);
    if (fields[0] == "switch") {
      if (seen_link) {
        fail(error, "switch row after link rows" + at);
        return std::nullopt;
      }
      if (fields.size() != 5) {
        fail(error, "switch row needs 5 fields" + at);
        return std::nullopt;
      }
      long long id = 0, level = 0, pod = 0;
      if (!parse_int(fields[1], &id) || !parse_int(fields[2], &level) ||
          !parse_int(fields[3], &pod) || level < 0 || !fits_int(level) ||
          !fits_int(pod)) {
        fail(error, "malformed switch row" + at);
        return std::nullopt;
      }
      if (static_cast<std::size_t>(id) != switches.size()) {
        fail(error, "switch ids must be dense and ascending" + at);
        return std::nullopt;
      }
      switches.push_back({static_cast<int>(level), static_cast<int>(pod),
                          fields[4], at});
    } else if (fields[0] == "link") {
      if (!seen_link && !add_switches()) return std::nullopt;
      seen_link = true;
      if (fields.size() != 6) {
        fail(error, "link row needs 6 fields" + at);
        return std::nullopt;
      }
      long long id = 0, lower = 0, upper = 0, enabled = 0, group = 0;
      if (!parse_int(fields[1], &id) || !parse_int(fields[2], &lower) ||
          !parse_int(fields[3], &upper) || !parse_int(fields[4], &enabled) ||
          !parse_int(fields[5], &group) || group < -1 || !fits_int(group)) {
        fail(error, "malformed link row" + at);
        return std::nullopt;
      }
      if (static_cast<std::size_t>(id) != topo.link_count()) {
        fail(error, "link ids must be dense and ascending" + at);
        return std::nullopt;
      }
      if (lower < 0 ||
          static_cast<std::size_t>(lower) >= topo.switch_count() ||
          upper < 0 ||
          static_cast<std::size_t>(upper) >= topo.switch_count()) {
        fail(error, "link references unknown switch" + at);
        return std::nullopt;
      }
      const common::SwitchId lo(
          static_cast<common::SwitchId::underlying_type>(lower));
      const common::SwitchId hi(
          static_cast<common::SwitchId::underlying_type>(upper));
      if (topo.switch_at(lo).level + 1 != topo.switch_at(hi).level) {
        fail(error, "link endpoints on non-adjacent levels" + at);
        return std::nullopt;
      }
      const common::LinkId link = topo.add_link(lo, hi);
      if (enabled == 0) topo.set_enabled(link, false);
      topo.set_breakout_group(link, static_cast<int>(group));
    } else {
      fail(error, "unknown row kind '" + fields[0] + "'" + at);
      return std::nullopt;
    }
  }
  if (!add_switches()) return std::nullopt;
  topo.validate();
  return topo;
}

}  // namespace corropt::topology
