#include "coral/bgp/location.hpp"

#include <cstdio>

#include "coral/common/error.hpp"

namespace coral::bgp {

const char* to_string(LocationKind kind) {
  switch (kind) {
    case LocationKind::Rack: return "rack";
    case LocationKind::Midplane: return "midplane";
    case LocationKind::NodeCard: return "node card";
    case LocationKind::ComputeCard: return "compute card";
    case LocationKind::ServiceCard: return "service card";
    case LocationKind::LinkCard: return "link card";
    case LocationKind::IoNode: return "I/O node";
  }
  return "?";
}

Location Location::make(LocationKind kind, int rack, int midplane_in_rack, int card, int sub) {
  // Encoding bounds only (see packed()): rack has 8 bits, the midplane
  // nibble and the two 6-bit slots reserve their all-ones value as the
  // "absent" sentinel.
  if (rack < 0 || rack > 0xFF) throw InvalidArgument("location rack does not fit encoding");
  if (midplane_in_rack < -1 || midplane_in_rack >= 0xF) {
    throw InvalidArgument("location midplane does not fit encoding");
  }
  if (card < -1 || card >= 0x3F) throw InvalidArgument("location card does not fit encoding");
  if (sub < -1 || sub >= 0x3F) throw InvalidArgument("location sub-slot does not fit encoding");

  const bool needs_mid = kind != LocationKind::Rack;
  const bool needs_card = kind == LocationKind::NodeCard || kind == LocationKind::ComputeCard ||
                          kind == LocationKind::LinkCard || kind == LocationKind::IoNode;
  const bool needs_sub = kind == LocationKind::ComputeCard || kind == LocationKind::IoNode;
  if (needs_mid != (midplane_in_rack >= 0) || needs_card != (card >= 0) ||
      needs_sub != (sub >= 0)) {
    throw InvalidArgument(std::string("location fields do not match kind '") +
                          bgp::to_string(kind) + "'");
  }
  Location loc;
  loc.kind_ = kind;
  loc.rack_ = static_cast<std::int16_t>(rack);
  loc.midplane_ = static_cast<std::int8_t>(midplane_in_rack);
  loc.card_ = static_cast<std::int8_t>(card);
  loc.sub_ = static_cast<std::int8_t>(sub);
  return loc;
}

bool Location::is_within(const Location& other) const {
  if (other.rack_ != rack_) return false;
  switch (other.kind_) {
    case LocationKind::Rack:
      return true;
    case LocationKind::Midplane:
      return kind_ != LocationKind::Rack && midplane_ == other.midplane_;
    case LocationKind::NodeCard:
      return (kind_ == LocationKind::NodeCard || kind_ == LocationKind::ComputeCard ||
              kind_ == LocationKind::IoNode) &&
             midplane_ == other.midplane_ && card_ == other.card_;
    default:
      return *this == other;
  }
}

std::string Location::to_string() const {
  char buf[32];
  switch (kind_) {
    case LocationKind::Rack:
      std::snprintf(buf, sizeof buf, "R%02d", rack_);
      break;
    case LocationKind::Midplane:
      std::snprintf(buf, sizeof buf, "R%02d-M%d", rack_, midplane_);
      break;
    case LocationKind::NodeCard:
      std::snprintf(buf, sizeof buf, "R%02d-M%d-N%02d", rack_, midplane_, card_);
      break;
    case LocationKind::ComputeCard:
      std::snprintf(buf, sizeof buf, "R%02d-M%d-N%02d-J%02d", rack_, midplane_, card_, sub_);
      break;
    case LocationKind::ServiceCard:
      std::snprintf(buf, sizeof buf, "R%02d-M%d-S", rack_, midplane_);
      break;
    case LocationKind::LinkCard:
      std::snprintf(buf, sizeof buf, "R%02d-M%d-L%d", rack_, midplane_, card_);
      break;
    case LocationKind::IoNode:
      std::snprintf(buf, sizeof buf, "R%02d-M%d-N%02d-I%02d", rack_, midplane_, card_, sub_);
      break;
  }
  return buf;
}

}  // namespace coral::bgp
