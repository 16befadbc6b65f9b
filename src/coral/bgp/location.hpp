#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "coral/bgp/topology.hpp"

namespace coral::bgp {

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

/// A parsed Blue Gene/P location code.
///
/// Location strings are hierarchical: rack > midplane > node card > card.
/// The co-analysis only needs two operations beyond round-tripping —
/// which midplane an event touches, and rack-level fan-out — both provided
/// here. Invalid strings throw ParseError.
class Location {
 public:
  /// Default-constructs as rack R00 (a placeholder; prefer the factories).
  Location() = default;

  /// Rack-level location, rack in [0, 40).
  static Location rack(int rack);
  /// Midplane-level location.
  static Location midplane(MidplaneId mid);
  /// Node card on a midplane, card in [0, 16).
  static Location node_card(MidplaneId mid, int card);
  /// Compute card: card in [0,16), jslot in [4, 36) (J04..J35 on BG/P).
  static Location compute_card(MidplaneId mid, int card, int jslot);
  /// Service card of a midplane.
  static Location service_card(MidplaneId mid);
  /// Link card of a midplane, slot in [0, 4).
  static Location link_card(MidplaneId mid, int slot);
  /// I/O node on a node card, slot in [0, 2).
  static Location io_node(MidplaneId mid, int card, int slot);

  /// Parse a location string such as "R04-M0-N08-J12". Throws ParseError.
  /// Takes a string_view so per-record CSV ingest parses in place without
  /// materializing a temporary std::string per field.
  static Location parse(std::string_view text);

  /// Assemble a location from raw fields (-1 = absent), validating only
  /// what the packed() encoding can represent plus which fields the kind
  /// requires — NOT the BG/P index ranges. This is the factory for
  /// machine::MachineModel implementations whose racks/slots exceed BG/P's;
  /// the named factories above stay the BG/P-validating path. Throws
  /// InvalidArgument on a field the encoding cannot hold.
  static Location make(LocationKind kind, int rack, int midplane_in_rack, int card, int sub);

  /// Rebuild a Location from its packed() key, validating every field (the
  /// key may come from an untrusted binary log). Throws ParseError on an
  /// impossible encoding.
  static Location from_packed(std::uint32_t key);

  LocationKind kind() const { return kind_; }
  int rack_index() const { return rack_; }

  /// The midplane this location lives on; nullopt for rack-level locations.
  std::optional<MidplaneId> midplane_id() const;

  /// True if this location is `other` or contained within it (e.g. a compute
  /// card is within its midplane and its rack).
  bool is_within(const Location& other) const;

  /// True if the location denotes hardware on (or containing) midplane `mid`.
  /// Rack-level locations touch both midplanes of the rack.
  bool touches_midplane(MidplaneId mid) const;

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

  friend bool operator==(const Location& a, const Location& b) = default;

 private:
  // rack_ leads so the five fields pack into 6 bytes with no padding,
  // which keeps ras::RasEvent at 32 bytes.
  std::int16_t rack_ = 0;      ///< [0, 40)
  LocationKind kind_ = LocationKind::Rack;
  std::int8_t midplane_ = -1;  ///< within rack, [0, 2); -1 when rack-level
  std::int8_t card_ = -1;      ///< node-card or link-card slot
  std::int8_t sub_ = -1;       ///< compute-card J-slot or I/O-node slot
};

/// Field accessors for packed() keys, so the columnar hot paths can reason
/// about a location without materializing a Location. These assume a key
/// produced by Location::packed() (use Location::from_packed to validate an
/// untrusted key).
constexpr LocationKind packed_kind(std::uint32_t key) {
  return static_cast<LocationKind>(key >> 24);
}
constexpr int packed_rack(std::uint32_t key) { return static_cast<int>((key >> 16) & 0xFF); }
/// Machine midplane id of a sub-rack key; meaningless for rack-level keys.
constexpr MidplaneId packed_midplane(std::uint32_t key) {
  return midplane_id(packed_rack(key), static_cast<int>((key >> 12) & 0xF));
}

}  // namespace coral::bgp
