#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coral/bgp/location.hpp"
#include "coral/bgp/partition.hpp"
#include "coral/common/rng.hpp"
#include "coral/machine/codec.hpp"

namespace coral::machine {

// The shared hardware-address value types. They started life in bgp/ and
// keep their layout and packed() encoding there; the machine layer owns the
// *grammar* (which strings are valid, which partitions are legal) while the
// value types stay machine-neutral containers for (kind, rack, midplane,
// card, sub) tuples.
using Location = bgp::Location;
using LocationKind = bgp::LocationKind;
using Partition = bgp::Partition;

/// Machine dimensions as data, so every layer sizes itself off whichever
/// machine the analysis targets. The defaults are the 40-rack Intrepid.
struct Topology {
  const char* name = "bgp";
  const char* description = "40-rack Blue Gene/P (Intrepid)";
  const char* interconnect = "3-D torus";
  int racks = 40;
  int midplanes_per_rack = 2;
  int racks_per_row = 8;
  int node_cards_per_midplane = 16;
  int compute_cards_per_node_card = 32;
  /// First J-slot index on a node card (BG/P numbers J04..J35; BG/Q J00..).
  int jslot_base = 4;
  int link_cards_per_midplane = 4;
  int io_nodes_per_node_card = 2;
  int nodes_per_midplane = 512;
  int cores_per_node = 4;

  int midplanes() const { return racks * midplanes_per_rack; }
};

/// Scheduler placement zones: where `sched::placement_rank` steers each job
/// class. The BG/P values reproduce Intrepid's observed layout (§VI-B);
/// other machines scale the same structure to their midplane count.
struct PlacementZones {
  /// Short single-midplane jobs (debug runs): lowest-address midplanes.
  MidplaneId head_first = 0;
  int head_count = 2;
  /// Long single-midplane jobs: the high end of the machine.
  MidplaneId tail_first = 64;
  int tail_count = 16;
  /// Small multi-midplane jobs (< wide_threshold).
  MidplaneId small_first = 2;
  int small_count = 30;
  /// Reservation band for wide jobs (>= wide_threshold midplanes).
  MidplaneId wide_first = 32;
  int wide_count = 32;
  /// Jobs at least this many midplanes wide count as "wide" — for placement,
  /// for the wear model, and for the Fig. 4 wide-workload series.
  int wide_threshold = 32;
};

/// One rung of a partition ladder: a legal partition size in midplanes and
/// the alignment its first midplane keeps.
struct PartitionRung {
  int size = 0;
  int alignment = 1;
};

/// A machine model: everything the co-analysis knows about one machine,
/// declared as data — its Topology, its partition ladder and its scheduler
/// placement zones. The location-string grammar, the packed-key validator
/// and the partition algebra are one implementation shared by every
/// machine; the data decides the index ranges, and the LocCodec decides
/// which midplanes a location touches.
///
/// Models are immutable; the process-lifetime singletons returned by
/// bgp_model()/bgq_model() are shared freely. Analyses resolve the model
/// through coral::Context (default: BG/P), and logs remember the model they
/// were parsed against, the same way they remember their errcode catalog.
class MachineModel {
 public:
  /// Declare a machine. `ladder` lists each legal partition size with its
  /// alignment, ascending by size. `zones` defaults to the BG/P proportions
  /// scaled to the machine's midplane count. The Topology's strings may
  /// point at transient storage (a parsed handshake, a config file): the
  /// model keeps its own copies.
  MachineModel(const Topology& topo, std::vector<PartitionRung> ladder,
               std::optional<PlacementZones> zones = std::nullopt);
  // topo_'s strings point into this object's own copies.
  MachineModel(const MachineModel&) = delete;
  MachineModel& operator=(const MachineModel&) = delete;

  const Topology& topology() const { return topo_; }
  const LocCodec& codec() const { return codec_; }
  std::string_view name() const { return topo_.name; }
  int midplane_count() const { return topo_.midplanes(); }

  // --- location grammar ------------------------------------------------
  /// Parse a RAS LOCATION string ("R04-M0-N08-J12"). Throws ParseError.
  Location parse_location(std::string_view text) const;
  /// Rebuild a Location from a packed key, validating every field against
  /// this machine (the key may come from an untrusted binary log). Accepts
  /// exactly the packed() keys of this machine's valid locations; throws
  /// ParseError naming the offending field otherwise. Inline: the binary
  /// decoders call it once per record or dictionary entry.
  Location location_from_packed(std::uint32_t key) const {
    const std::uint32_t kind = key >> 24;
    if (kind <= static_cast<std::uint32_t>(LocationKind::IoNode)) [[likely]] {
      // One range check per field, against this kind's grammar. A key that
      // passes is the packed() form of the Location it decodes to.
      const FieldRange* f = key_fields_[kind];
      if (((key >> 16) & 0xFF) < static_cast<std::uint32_t>(topo_.racks) &&
          f[0].contains((key >> 12) & 0xF) && f[1].contains((key >> 6) & 0x3F) &&
          f[2].contains(key & 0x3F)) [[likely]] {
        return Location::unpack(key);
      }
    }
    reject_packed_key(key);
  }
  /// Canonical string form of a location on this machine.
  std::string location_string(const Location& loc) const { return loc.to_string(); }
  /// Uniformly sample a concrete location of `kind` on midplane `mid`
  /// (used by fault injection). Draws the same RNG sequence on every
  /// machine: one uniform per free slot, card before sub-slot.
  Location location_on_midplane(LocationKind kind, MidplaneId mid, Rng& rng) const;
  /// The midplane-kind Location for a flat midplane id on this machine.
  Location midplane_location(MidplaneId mid) const;

  // --- partition algebra ------------------------------------------------
  /// Legal partition sizes in midplanes, ascending.
  const std::vector<int>& legal_partition_sizes() const { return sizes_; }
  /// True if [first, first+count) is a legal partition here: `count` is on
  /// the ladder, `first` keeps its rung's alignment, and the partition fits.
  bool is_legal_partition(MidplaneId first, int count) const;
  /// Parse a job-log partition name ("R04-M0", "R04", "R08-R11").
  Partition parse_partition(std::string_view text) const;
  /// Canonical job-log name of a partition on this machine.
  std::string partition_name(const Partition& part) const;
  /// All legal partitions of a given size, in address order.
  std::vector<Partition> partitions_of_size(int midplane_count) const;

  // --- scheduler placement ---------------------------------------------
  const PlacementZones& placement_zones() const { return zones_; }

 private:
  /// Raw values [lo, hi) one packed-key field accepts.
  struct FieldRange {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    bool contains(std::uint32_t v) const { return v - lo < hi - lo; }
  };
  /// Per field (midplane nibble, card, sub), the range that accepts only
  /// the field's all-ones "absent" value.
  static constexpr FieldRange kAbsent[3] = {{0xF, 0x10}, {0x3F, 0x40}, {0x3F, 0x40}};

  /// Throws the ParseError that names the field `key` fails on.
  [[noreturn]] void reject_packed_key(std::uint32_t key) const;

  std::string name_, description_, interconnect_;
  Topology topo_;
  LocCodec codec_;
  std::vector<PartitionRung> ladder_;
  std::vector<int> sizes_;
  PlacementZones zones_;
  /// Per kind, the accepted midplane nibble, card and sub values.
  FieldRange key_fields_[7][3];
};

/// The reference machine: the paper's 40-rack Blue Gene/P (Intrepid), with
/// the partition ladder of Table VI.
const MachineModel& bgp_model();

/// A 48-rack Blue Gene/Q (Mira-scale, per Sîrbu & Babaoglu's BG/Q study):
/// 96 midplanes, J00..J31 compute cards, a 5-D torus, and its own legal
/// partition ladder and placement zones. Deliberately bigger than BG/P's 80
/// midplanes so any leftover compile-time sizing assumption trips
/// immediately.
const MachineModel& bgq_model();

/// A machine model over an arbitrary Topology with the default ladder:
/// every power of two aligned to its own size, plus the full machine at 0.
/// This is what a fleet tenant registers at connect time when its machine
/// is neither of the built-ins.
class DataModel : public MachineModel {
 public:
  explicit DataModel(const Topology& topo);
};

/// Look up a model by name ("bgp", "bgq", or anything registered at
/// runtime); nullptr when unknown.
const MachineModel* find_model(std::string_view name);

/// All known models: the built-ins (bgp first), then runtime registrations
/// in registration order.
std::vector<const MachineModel*> all_models();

/// Register `model` under model.name() so find_model() resolves it — the
/// hook that lets a fleet tenant's machine arrive at connect time instead
/// of compile time. The caller keeps ownership and must keep the model
/// alive until it is unregistered (or process exit). Returns false without
/// registering when the name is already taken (built-in or registered).
/// Thread-safe, as is lookup.
bool register_model(const MachineModel& model);

/// Remove a runtime registration by name. Returns false when no such
/// runtime model exists; built-ins cannot be unregistered.
bool unregister_model(std::string_view name);

}  // namespace coral::machine
