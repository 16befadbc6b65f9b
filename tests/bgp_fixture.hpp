#pragma once

// BG/P locations and partitions for tests, built through the data-declared
// reference machine (machine::bgp_model()), so every fixture passes the same
// grammar and partition ladder the analyses use.

#include <optional>
#include <string_view>

#include "coral/common/error.hpp"
#include "coral/machine/model.hpp"

namespace coral::testing {

/// Parse a BG/P location string ("R04-M0-N08-J12"). Throws ParseError.
inline bgp::Location bgp_loc(std::string_view text) {
  return machine::bgp_model().parse_location(text);
}

/// The midplane-kind location of BG/P midplane `mid`.
inline bgp::Location bgp_midplane(bgp::MidplaneId mid) {
  return machine::bgp_model().midplane_location(mid);
}

/// The rack-level location of BG/P rack `rack`.
inline bgp::Location bgp_rack(int rack) {
  return machine::bgp_model().location_from_packed(
      bgp::Location::make(bgp::LocationKind::Rack, rack, -1, -1, -1).packed());
}

/// The one BG/P midplane a location sits on; nullopt for a rack-level
/// location, which touches both midplanes of its rack.
inline std::optional<bgp::MidplaneId> bgp_midplane_of(const bgp::Location& loc) {
  const machine::MidplaneRange r = machine::bgp_model().codec().midplanes(loc.packed());
  if (r.size() != 1) return std::nullopt;
  return r.first;
}

/// Parse a BG/P job-log partition name ("R04-M0", "R04", "R08-R11").
inline bgp::Partition bgp_part(std::string_view text) {
  return machine::bgp_model().parse_partition(text);
}

/// The BG/P partition [first, first + count); throws InvalidArgument when it
/// is not on the BG/P ladder.
inline bgp::Partition bgp_part(bgp::MidplaneId first, int count) {
  if (!machine::bgp_model().is_legal_partition(first, count)) {
    throw InvalidArgument("not a legal BG/P partition");
  }
  return bgp::Partition::unchecked(first, count);
}

}  // namespace coral::testing
