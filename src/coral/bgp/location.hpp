#pragma once

#include <cstdint>
#include <string>

namespace coral::bgp {

/// Flat machine midplane index: rack * midplanes-per-rack + midplane within
/// the rack (see machine::LocCodec).
using MidplaneId = std::int32_t;

/// Hardware element kinds that appear in the RAS LOCATION field.
enum class LocationKind : std::uint8_t {
  Rack,         ///< "R04"
  Midplane,     ///< "R04-M0"
  NodeCard,     ///< "R04-M0-N08"
  ComputeCard,  ///< "R04-M0-N08-J12"
  ServiceCard,  ///< "R04-M0-S"
  LinkCard,     ///< "R04-M0-L1"
  IoNode,       ///< "R04-M0-N08-I00" (I/O node on a node card)
};

/// Short human-readable name of a kind ("midplane", "node card", ...).
const char* to_string(LocationKind kind);

/// A hardware location: (kind, rack, midplane, card, sub) in the Blue Gene
/// family's location-code shape.
///
/// Location strings are hierarchical: rack > midplane > node card > card.
/// This is a value type only: which strings and keys are valid on a machine,
/// and which midplanes a location touches, belong to machine::MachineModel
/// and its machine::LocCodec.
class Location {
 public:
  /// Default-constructs as rack R00 (a placeholder; prefer a model's
  /// parse_location or make()).
  Location() = default;

  /// Assemble a location from raw fields (-1 = absent), validating only
  /// what the packed() encoding can represent plus which fields the kind
  /// requires; a machine's index ranges are machine::MachineModel's to
  /// check. Throws InvalidArgument on a field the encoding cannot hold.
  static Location make(LocationKind kind, int rack, int midplane_in_rack, int card, int sub);

  LocationKind kind() const { return kind_; }
  int rack_index() const { return rack_; }

  /// True if this location is `other` or contained within it (e.g. a compute
  /// card is within its midplane and its rack).
  bool is_within(const Location& other) const;

  /// Canonical string form ("R04-M0-N08-J12").
  std::string to_string() const;

  /// Dense integer encoding, unique per location — a cheap hash-map key for
  /// the filtering hot paths (2M-record logs).
  std::uint32_t packed() const {
    return (static_cast<std::uint32_t>(kind_) << 24) |
           (static_cast<std::uint32_t>(static_cast<std::uint8_t>(rack_)) << 16) |
           ((static_cast<std::uint32_t>(static_cast<std::uint8_t>(midplane_)) & 0xF) << 12) |
           ((static_cast<std::uint32_t>(static_cast<std::uint8_t>(card_)) & 0x3F) << 6) |
           (static_cast<std::uint32_t>(static_cast<std::uint8_t>(sub_)) & 0x3F);
  }

  /// The Location whose packed() is `key`, without validation: exact only
  /// for a canonical key. A key from outside goes through a machine's
  /// location_from_packed, which validates it and then calls this.
  static Location unpack(std::uint32_t key) {
    const auto field = [](std::uint32_t v, std::uint32_t absent) {
      return static_cast<std::int8_t>(v == absent ? -1 : static_cast<int>(v));
    };
    Location loc;
    loc.kind_ = static_cast<LocationKind>(key >> 24);
    loc.rack_ = static_cast<std::int16_t>((key >> 16) & 0xFF);
    loc.midplane_ = field((key >> 12) & 0xF, 0xF);
    loc.card_ = field((key >> 6) & 0x3F, 0x3F);
    loc.sub_ = field(key & 0x3F, 0x3F);
    return loc;
  }

  friend bool operator==(const Location& a, const Location& b) = default;

 private:
  // rack_ leads so the five fields pack into 6 bytes with no padding,
  // which keeps ras::RasEvent at 32 bytes.
  std::int16_t rack_ = 0;
  LocationKind kind_ = LocationKind::Rack;
  std::int8_t midplane_ = -1;  ///< within rack; -1 when rack-level
  std::int8_t card_ = -1;      ///< node-card or link-card slot
  std::int8_t sub_ = -1;       ///< compute-card J-slot or I/O-node slot
};

}  // namespace coral::bgp
