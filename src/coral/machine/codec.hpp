#pragma once

#include <cstdint>

namespace coral::machine {

using MidplaneId = std::int32_t;

/// A half-open range [first, end) of flat midplane ids.
struct MidplaneRange {
  MidplaneId first = 0;
  MidplaneId end = 0;

  int size() const { return end - first; }
  bool contains(MidplaneId m) const { return m >= first && m < end; }
};

/// The packed loc_key codec contract.
///
/// Every MachineModel encodes locations into the same 32-bit layout,
/// `bgp::Location::packed()`, that the columnar hot paths key on:
///
///     [31..24] kind   (LocationKind; Rack == 0)
///     [23..16] rack   index, [0, 256)
///     [15..12] midplane within rack, [0, 15); 0xF = absent (rack-level)
///     [11..6]  card slot, [0, 63); 0x3F = absent
///     [5..0]   sub slot (J-slot / I/O slot), [0, 63); 0x3F = absent
///
/// The only machine-dependent step in decoding a key is mapping
/// (rack, midplane-within-rack) to a flat machine midplane id, which needs
/// the machine's midplanes-per-rack. LocCodec carries exactly that one
/// number and is the one place that does the mapping: `midplanes(key)` is
/// the rule for which midplanes a location touches (every midplane of its
/// rack for a rack-level location, its own midplane otherwise), and the
/// rack/midplane conversions below are the only rack arithmetic in the
/// code base. Hot loops grab the codec once per run and decode keys with
/// two shifts and a multiply, with no virtual call per event and no
/// Location materialization. A default-constructed LocCodec is the Blue
/// Gene family codec (2 midplanes per rack).
struct LocCodec {
  int midplanes_per_rack = 2;

  static int rack_of(std::uint32_t key) { return static_cast<int>((key >> 16) & 0xFF); }

  /// True when the key encodes a whole rack (LocationKind::Rack == 0).
  static bool is_rack(std::uint32_t key) { return (key >> 24) == 0; }

  /// The midplanes a location key touches.
  MidplaneRange midplanes(std::uint32_t key) const {
    const MidplaneRange rack = rack_midplanes(rack_of(key));
    if (is_rack(key)) return rack;
    const MidplaneId m = rack.first + static_cast<MidplaneId>((key >> 12) & 0xF);
    return {m, m + 1};
  }

  /// The midplanes of rack `rack`.
  MidplaneRange rack_midplanes(int rack) const {
    return {rack * midplanes_per_rack, (rack + 1) * midplanes_per_rack};
  }
  int rack_of_midplane(MidplaneId m) const { return m / midplanes_per_rack; }
  int midplane_in_rack(MidplaneId m) const { return m % midplanes_per_rack; }
};

}  // namespace coral::machine
