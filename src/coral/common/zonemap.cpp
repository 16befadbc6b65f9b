#include "coral/common/zonemap.hpp"

#include <cstring>
#include <limits>

namespace coral::bin {

namespace {

std::uint32_t load_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t load_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

void ZoneMap::add_location(std::uint32_t key, const machine::LocCodec& codec) {
  add_key(key);
  const machine::MidplaneRange r = codec.midplanes(key);
  for (machine::MidplaneId m = r.first; m < r.end; ++m) add_midplane(m);
}

void store_zone_map(char* out, const ZoneMap& zm) {
  std::memcpy(out, &zm.min_usec, 8);
  std::memcpy(out + 8, &zm.max_usec, 8);
  std::memcpy(out + 16, &zm.midplane_bits, 8);
  std::memcpy(out + 24, &zm.min_key, 4);
  std::memcpy(out + 28, &zm.max_key, 4);
}

bool read_zone_map(std::string_view data, std::size_t& pos, ZoneMap& zm) {
  if (data.size() - pos < kZoneMapBytes) return false;
  const char* p = data.data() + pos;
  zm.min_usec = static_cast<std::int64_t>(load_u64(p));
  zm.max_usec = static_cast<std::int64_t>(load_u64(p + 8));
  zm.midplane_bits = load_u64(p + 16);
  zm.min_key = load_u32(p + 24);
  zm.max_key = load_u32(p + 28);
  pos += kZoneMapBytes;
  return true;
}

ZoneFilter::ZoneFilter(const ReadPredicate& pred, const machine::LocCodec& codec,
                       int machine_midplanes)
    : begin_usec_(pred.time_begin ? pred.time_begin->usec()
                                  : std::numeric_limits<std::int64_t>::min()),
      end_usec_(pred.time_end ? pred.time_end->usec()
                              : std::numeric_limits<std::int64_t>::max()),
      codec_(codec) {
  if (!pred.midplanes.empty()) {
    constrain_midplanes_ = true;
    member_.assign(static_cast<std::size_t>(machine_midplanes < 0 ? 0 : machine_midplanes),
                   false);
    for (machine::MidplaneId mid : pred.midplanes) {
      if (mid < 0) continue;
      folded_ |= std::uint64_t{1} << (static_cast<std::uint32_t>(mid) & 63);
      if (static_cast<std::size_t>(mid) >= member_.size()) {
        member_.resize(static_cast<std::size_t>(mid) + 1, false);
      }
      member_[static_cast<std::size_t>(mid)] = true;
    }
  }
}

bool ZoneFilter::may_match(const ZoneMap& zm) const {
  // An empty zone map (block of zero records) matches nothing.
  if (zm.min_usec > zm.max_usec) return false;
  if (zm.max_usec < begin_usec_ || zm.min_usec >= end_usec_) return false;
  if (constrain_midplanes_ && (zm.midplane_bits & folded_) == 0) return false;
  return true;
}

bool ZoneFilter::match_location(std::uint32_t key) const {
  const machine::MidplaneRange r = codec_.midplanes(key);
  return match_midplane_range(r.first, r.size());
}

bool ZoneFilter::match_midplane_range(machine::MidplaneId first, int count) const {
  if (!constrain_midplanes_) return true;
  for (int i = 0; i < count; ++i) {
    const machine::MidplaneId mid = first + i;
    if (mid >= 0 && static_cast<std::size_t>(mid) < member_.size() &&
        member_[static_cast<std::size_t>(mid)]) {
      return true;
    }
  }
  return false;
}

}  // namespace coral::bin
