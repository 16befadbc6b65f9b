#include "coral/machine/model.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <mutex>

#include "coral/common/error.hpp"
#include "coral/common/strings.hpp"

namespace coral::machine {

// ---------------------------------------------------------------------------
// Declaration: the built-in machines, the default ladder and zones.

namespace {

// The BG/P proportions (§VI-B) scaled to an N-midplane machine: a
// 2-midplane debug head, the top fifth for long narrow jobs, a two-fifths
// reservation band for wide jobs, and the remainder for small
// multi-midplane jobs. At N = 80 this is Intrepid's layout exactly
// (0-1 / 64-79 / 2-31 / 32-63, wide >= 32).
PlacementZones scaled_zones(int n) {
  const int fifth = n / 5;
  PlacementZones z;
  z.head_first = 0;
  z.head_count = 2;
  z.tail_first = n - fifth;
  z.tail_count = fifth;
  z.wide_first = 2 * fifth;
  z.wide_count = z.tail_first - z.wide_first;
  z.small_first = 2;
  z.small_count = z.wide_first - 2;
  z.wide_threshold = z.wide_first;
  return z;
}

// Every power of two aligned to its own size, plus the full machine at 0.
std::vector<PartitionRung> power_of_two_ladder(int n) {
  std::vector<PartitionRung> ladder;
  for (int s = 1; s <= n; s *= 2) ladder.push_back({s, s});
  if (n > 0 && ladder.back().size != n) ladder.push_back({n, n});
  return ladder;
}

}  // namespace

MachineModel::MachineModel(const Topology& topo, std::vector<PartitionRung> ladder,
                           std::optional<PlacementZones> zones)
    : name_(topo.name),
      description_(topo.description),
      interconnect_(topo.interconnect),
      topo_(topo),
      codec_{topo.midplanes_per_rack},
      ladder_(std::move(ladder)),
      zones_(zones ? *zones : scaled_zones(topo.midplanes())) {
  topo_.name = name_.c_str();
  topo_.description = description_.c_str();
  topo_.interconnect = interconnect_.c_str();
  for (const PartitionRung& r : ladder_) {
    CORAL_EXPECTS(r.size > 0 && r.alignment > 0);
    CORAL_EXPECTS(sizes_.empty() || sizes_.back() < r.size);
    sizes_.push_back(r.size);
  }

  // The packed-key grammar: per kind, the accepted raw values of the
  // midplane nibble, card and sub fields. A field the kind uses takes the
  // machine's range, clipped below the field's all-ones "absent" value; a
  // field it does not use takes only that value.
  const auto range = [](int field, int lo, int hi) {
    const auto clip = [field](int v) {
      return static_cast<std::uint32_t>(
          std::clamp<int>(v, 0, static_cast<int>(kAbsent[field].lo)));
    };
    return FieldRange{clip(lo), clip(hi)};
  };
  const FieldRange no_mid = kAbsent[0], no_card = kAbsent[1], no_sub = kAbsent[2];
  const FieldRange mid = range(0, 0, topo_.midplanes_per_rack);
  const FieldRange node = range(1, 0, topo_.node_cards_per_midplane);
  const FieldRange link = range(1, 0, topo_.link_cards_per_midplane);
  const FieldRange jslot =
      range(2, topo_.jslot_base, topo_.jslot_base + topo_.compute_cards_per_node_card);
  const FieldRange io = range(2, 0, topo_.io_nodes_per_node_card);
  const auto set = [this](LocationKind kind, FieldRange m, FieldRange card, FieldRange sub) {
    FieldRange* f = key_fields_[static_cast<std::size_t>(kind)];
    f[0] = m;
    f[1] = card;
    f[2] = sub;
  };
  set(LocationKind::Rack, no_mid, no_card, no_sub);
  set(LocationKind::Midplane, mid, no_card, no_sub);
  set(LocationKind::NodeCard, mid, node, no_sub);
  set(LocationKind::ComputeCard, mid, node, jslot);
  set(LocationKind::ServiceCard, mid, no_card, no_sub);
  set(LocationKind::LinkCard, mid, link, no_sub);
  set(LocationKind::IoNode, mid, node, io);
}

const MachineModel& bgp_model() {
  static const MachineModel model(
      Topology{},
      {{1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16}, {32, 32}, {48, 16}, {64, 16}, {80, 80}});
  return model;
}

const MachineModel& bgq_model() {
  // Mira keeps Intrepid's zone structure but gives the wide band the extra
  // 16 midplanes: debug head 0-1, long narrow jobs 80-95, small jobs 2-31,
  // wide (>= 32 midplane) reservation 32-79.
  static const MachineModel model(
      Topology{
          .name = "bgq",
          .description = "48-rack Blue Gene/Q (Mira)",
          .interconnect = "5-D torus",
          .racks = 48,
          .midplanes_per_rack = 2,
          .racks_per_row = 16,
          .node_cards_per_midplane = 16,
          .compute_cards_per_node_card = 32,
          .jslot_base = 0,
          .link_cards_per_midplane = 4,
          .io_nodes_per_node_card = 2,
          .nodes_per_midplane = 512,
          .cores_per_node = 16,
      },
      {{1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16}, {32, 32}, {64, 32}, {96, 96}},
      PlacementZones{.head_first = 0,
                     .head_count = 2,
                     .tail_first = 80,
                     .tail_count = 16,
                     .small_first = 2,
                     .small_count = 30,
                     .wide_first = 32,
                     .wide_count = 48,
                     .wide_threshold = 32});
  return model;
}

DataModel::DataModel(const Topology& topo)
    : MachineModel(topo, power_of_two_ladder(topo.midplanes())) {}

// ---------------------------------------------------------------------------
// Location grammar. The string shapes are the Blue Gene family's
// ("R04-M0-N08-J12"); the machine decides the index ranges.

namespace {

int parse_num_after(std::string_view part, char prefix, std::string_view whole) {
  if (part.size() < 2 || part[0] != prefix) {
    throw ParseError("bad location segment '" + std::string(part) + "' in '" +
                     std::string(whole) + "'");
  }
  for (std::size_t i = 1; i < part.size(); ++i) {
    if (part[i] < '0' || part[i] > '9') {
      throw ParseError("bad location segment '" + std::string(part) + "' in '" +
                       std::string(whole) + "'");
    }
  }
  return static_cast<int>(parse_int(part.substr(1)));
}

}  // namespace

Location MachineModel::parse_location(std::string_view text) const {
  std::array<std::string_view, 6> parts;
  std::size_t nparts = 0;
  std::size_t seg_begin = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '-') {
      if (nparts == parts.size()) throw ParseError("too many segments: '" + std::string(text) + "'");
      parts[nparts++] = text.substr(seg_begin, i - seg_begin);
      seg_begin = i + 1;
    }
  }
  if (parts[0].empty()) throw ParseError("empty location");

  const int rk = parse_num_after(parts[0], 'R', text);
  if (rk < 0 || rk >= topo_.racks) {
    throw ParseError("rack out of range: '" + std::string(text) + "'");
  }
  if (nparts == 1) return Location::make(LocationKind::Rack, rk, -1, -1, -1);

  const std::string_view p1 = parts[1];
  if (p1 == "S") {
    throw ParseError("service card requires a midplane: '" + std::string(text) + "'");
  }
  const int mp = parse_num_after(p1, 'M', text);
  if (mp < 0 || mp >= topo_.midplanes_per_rack) {
    throw ParseError("midplane out of range: '" + std::string(text) + "'");
  }
  if (nparts == 2) return Location::make(LocationKind::Midplane, rk, mp, -1, -1);

  const std::string_view p2 = parts[2];
  if (p2 == "S") {
    if (nparts != 3) {
      throw ParseError("trailing segments after service card: '" + std::string(text) + "'");
    }
    return Location::make(LocationKind::ServiceCard, rk, mp, -1, -1);
  }
  if (!p2.empty() && p2[0] == 'L') {
    if (nparts != 3) {
      throw ParseError("trailing segments after link card: '" + std::string(text) + "'");
    }
    const int slot = parse_num_after(p2, 'L', text);
    if (slot < 0 || slot >= topo_.link_cards_per_midplane) {
      throw ParseError("link card out of range: '" + std::string(text) + "'");
    }
    return Location::make(LocationKind::LinkCard, rk, mp, slot, -1);
  }
  const int card = parse_num_after(p2, 'N', text);
  if (card < 0 || card >= topo_.node_cards_per_midplane) {
    throw ParseError("node card out of range: '" + std::string(text) + "'");
  }
  if (nparts == 3) return Location::make(LocationKind::NodeCard, rk, mp, card, -1);

  const std::string_view p3 = parts[3];
  if (nparts != 4) throw ParseError("too many segments: '" + std::string(text) + "'");
  if (!p3.empty() && p3[0] == 'I') {
    const int slot = parse_num_after(p3, 'I', text);
    if (slot < 0 || slot >= topo_.io_nodes_per_node_card) {
      throw ParseError("I/O node out of range: '" + std::string(text) + "'");
    }
    return Location::make(LocationKind::IoNode, rk, mp, card, slot);
  }
  const int jslot = parse_num_after(p3, 'J', text);
  if (jslot < topo_.jslot_base || jslot >= topo_.jslot_base + topo_.compute_cards_per_node_card) {
    throw ParseError("compute card out of range: '" + std::string(text) + "'");
  }
  return Location::make(LocationKind::ComputeCard, rk, mp, card, jslot);
}

void MachineModel::reject_packed_key(std::uint32_t key) const {
  const std::uint32_t kind_raw = key >> 24;
  if (kind_raw > static_cast<std::uint32_t>(LocationKind::IoNode)) {
    throw ParseError("bad location kind in packed key");
  }
  if (((key >> 16) & 0xFF) >= static_cast<std::uint32_t>(topo_.racks)) {
    throw ParseError("rack out of range in packed key");
  }
  const auto kind = static_cast<LocationKind>(kind_raw);
  const FieldRange* f = key_fields_[kind_raw];
  const std::uint32_t raw[3] = {(key >> 12) & 0xF, (key >> 6) & 0x3F, key & 0x3F};
  for (int i = 0; i < 3; ++i) {
    if (f[i].contains(raw[i])) continue;
    const bool required = f[i].lo != kAbsent[i].lo || f[i].hi != kAbsent[i].hi;
    const char* field = i == 0   ? "midplane"
                        : i == 1 ? (!required                          ? "card"
                                    : kind == LocationKind::LinkCard ? "link card"
                                                                     : "node card")
                                 : (!required                             ? "sub-slot"
                                    : kind == LocationKind::ComputeCard ? "compute card"
                                                                        : "I/O node");
    if (required) throw ParseError(std::string(field) + " out of range in packed key");
    throw ParseError(std::string(field) + " present in packed " + bgp::to_string(kind) +
                     " key");
  }
  throw ParseError("bad packed location key");
}

Location MachineModel::location_on_midplane(LocationKind kind, MidplaneId mid, Rng& rng) const {
  const int rack = codec_.rack_of_midplane(mid);
  const int mp = codec_.midplane_in_rack(mid);
  switch (kind) {
    case LocationKind::Rack:
      return Location::make(LocationKind::Rack, rack, -1, -1, -1);
    case LocationKind::Midplane:
      return Location::make(LocationKind::Midplane, rack, mp, -1, -1);
    case LocationKind::NodeCard:
      return Location::make(
          LocationKind::NodeCard, rack, mp,
          static_cast<int>(rng.uniform_index(static_cast<std::size_t>(topo_.node_cards_per_midplane))), -1);
    case LocationKind::ComputeCard:
      return Location::make(
          LocationKind::ComputeCard, rack, mp,
          static_cast<int>(rng.uniform_index(static_cast<std::size_t>(topo_.node_cards_per_midplane))),
          topo_.jslot_base +
              static_cast<int>(rng.uniform_index(static_cast<std::size_t>(topo_.compute_cards_per_node_card))));
    case LocationKind::ServiceCard:
      return Location::make(LocationKind::ServiceCard, rack, mp, -1, -1);
    case LocationKind::LinkCard:
      return Location::make(
          LocationKind::LinkCard, rack, mp,
          static_cast<int>(rng.uniform_index(static_cast<std::size_t>(topo_.link_cards_per_midplane))), -1);
    case LocationKind::IoNode:
      return Location::make(
          LocationKind::IoNode, rack, mp,
          static_cast<int>(rng.uniform_index(static_cast<std::size_t>(topo_.node_cards_per_midplane))),
          static_cast<int>(rng.uniform_index(static_cast<std::size_t>(topo_.io_nodes_per_node_card))));
  }
  return Location::make(LocationKind::Midplane, rack, mp, -1, -1);
}

Location MachineModel::midplane_location(MidplaneId mid) const {
  return Location::make(LocationKind::Midplane, codec_.rack_of_midplane(mid),
                        codec_.midplane_in_rack(mid), -1, -1);
}

// ---------------------------------------------------------------------------
// Partition algebra.

bool MachineModel::is_legal_partition(MidplaneId first, int count) const {
  for (const PartitionRung& r : ladder_) {
    if (r.size == count) {
      return first >= 0 && first % r.alignment == 0 && first + count <= midplane_count();
    }
  }
  return false;
}

Partition MachineModel::parse_partition(std::string_view text) const {
  const std::size_t dash = text.find('-');
  const std::string_view head = text.substr(0, dash);
  const std::string_view tail =
      dash == std::string_view::npos ? std::string_view{} : text.substr(dash + 1);
  const auto checked = [&](MidplaneId first, MidplaneId end) {
    const int count = end - first;
    if (!is_legal_partition(first, count)) {
      throw ParseError("illegal partition '" + std::string(text) + "': illegal partition: first midplane " +
                       std::to_string(first) + ", size " + std::to_string(count));
    }
    return Partition::unchecked(first, count);
  };
  if (dash == std::string_view::npos) {
    const Location loc = parse_location(text);
    if (loc.kind() != LocationKind::Rack) {
      throw ParseError("not a partition: '" + std::string(text) + "'");
    }
    const MidplaneRange r = codec_.rack_midplanes(loc.rack_index());
    return checked(r.first, r.end);
  }
  if (!tail.empty() && tail[0] == 'M' && tail.find('-') == std::string_view::npos) {
    const MidplaneRange r = codec_.midplanes(parse_location(text).packed());
    return checked(r.first, r.end);
  }
  if (!tail.empty() && tail[0] == 'R' && tail.find('-') == std::string_view::npos) {
    const Location a = parse_location(head);
    const Location b = parse_location(tail);
    if (a.kind() != LocationKind::Rack || b.kind() != LocationKind::Rack ||
        b.rack_index() < a.rack_index()) {
      throw ParseError("bad rack range: '" + std::string(text) + "'");
    }
    return checked(codec_.rack_midplanes(a.rack_index()).first,
                   codec_.rack_midplanes(b.rack_index()).end);
  }
  throw ParseError("unrecognized partition: '" + std::string(text) + "'");
}

std::string MachineModel::partition_name(const Partition& part) const {
  const int first_rack = codec_.rack_of_midplane(part.first_midplane());
  char buf[32];
  if (part.midplane_count() == 1) {
    std::snprintf(buf, sizeof buf, "R%02d-M%d", first_rack,
                  codec_.midplane_in_rack(part.first_midplane()));
  } else if (part.midplane_count() == topo_.midplanes_per_rack) {
    std::snprintf(buf, sizeof buf, "R%02d", first_rack);
  } else {
    std::snprintf(buf, sizeof buf, "R%02d-R%02d", first_rack,
                  codec_.rack_of_midplane(part.end_midplane() - 1));
  }
  return buf;
}

std::vector<Partition> MachineModel::partitions_of_size(int midplane_count) const {
  std::vector<Partition> out;
  for (MidplaneId first = 0; first + midplane_count <= this->midplane_count(); ++first) {
    if (is_legal_partition(first, midplane_count)) {
      out.push_back(Partition::unchecked(first, midplane_count));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Registry. The built-ins are compile-time fixtures; runtime registrations
// (fleet tenants bringing their own machines) live behind a mutex.

namespace {

std::mutex& registry_mutex() {
  static std::mutex mu;
  return mu;
}

std::vector<const MachineModel*>& registered_models() {
  static std::vector<const MachineModel*> models;
  return models;
}

const std::vector<const MachineModel*>& builtin_models() {
  static const std::vector<const MachineModel*> models = {&bgp_model(), &bgq_model()};
  return models;
}

}  // namespace

const MachineModel* find_model(std::string_view name) {
  for (const MachineModel* m : builtin_models()) {
    if (m->name() == name) return m;
  }
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (const MachineModel* m : registered_models()) {
    if (m->name() == name) return m;
  }
  return nullptr;
}

std::vector<const MachineModel*> all_models() {
  std::vector<const MachineModel*> out = builtin_models();
  std::lock_guard<std::mutex> lock(registry_mutex());
  out.insert(out.end(), registered_models().begin(), registered_models().end());
  return out;
}

bool register_model(const MachineModel& model) {
  for (const MachineModel* m : builtin_models()) {
    if (m->name() == model.name()) return false;
  }
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (const MachineModel* m : registered_models()) {
    if (m->name() == model.name()) return false;
  }
  registered_models().push_back(&model);
  return true;
}

bool unregister_model(std::string_view name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  auto& models = registered_models();
  for (auto it = models.begin(); it != models.end(); ++it) {
    if ((*it)->name() == name) {
      models.erase(it);
      return true;
    }
  }
  return false;
}

}  // namespace coral::machine
