#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coral/common/time.hpp"
#include "coral/machine/codec.hpp"

namespace coral::bin {

/// Per-block index entry of the v3 log store: the min/max event time, a
/// folded midplane bitmap and the min/max packed location key of one record
/// block, written as an uncompressed 32-byte prefix of every compressed
/// block payload (and repeated in the segment footers). Readers evaluate a
/// ReadPredicate against this and skip non-matching blocks without
/// decompressing — the predicate-pushdown contract.
///
/// The bitmap folds machine midplane ids mod 64 (bit = id % 64), so a test
/// can false-positive on machines with more than 64 midplanes but never
/// false-negative: pushdown stays a *conservative* filter and the reader's
/// exact per-record predicate does the rest. Rack-level locations set the
/// bits of every midplane in the rack.
///
/// Job blocks reuse the same shape: time covers [min start, max end],
/// the bitmap folds every midplane of every partition, and the key range
/// carries [min first-midplane, max last-midplane] as plain integers.
struct ZoneMap {
  std::int64_t min_usec = INT64_MAX;
  std::int64_t max_usec = INT64_MIN;
  std::uint64_t midplane_bits = 0;
  std::uint32_t min_key = UINT32_MAX;
  std::uint32_t max_key = 0;

  void add_time(std::int64_t usec) {
    if (usec < min_usec) min_usec = usec;
    if (usec > max_usec) max_usec = usec;
  }
  void add_key(std::uint32_t key) {
    if (key < min_key) min_key = key;
    if (key > max_key) max_key = key;
  }
  void add_midplane(machine::MidplaneId mid) {
    midplane_bits |= std::uint64_t{1} << (static_cast<std::uint32_t>(mid) & 63);
  }
  /// Fold every midplane a packed location key touches (rack-level keys
  /// cover the whole rack), and track the key range.
  void add_location(std::uint32_t key, const machine::LocCodec& codec);
};

/// Serialized size of a ZoneMap (fixed little-endian layout, pinned by the
/// v3 golden-layout test).
inline constexpr std::size_t kZoneMapBytes = 8 + 8 + 8 + 4 + 4;

/// Write the kZoneMapBytes of `zm` at `out`.
void store_zone_map(char* out, const ZoneMap& zm);
/// Parse a zone map at `pos`, advancing it; false on truncation.
bool read_zone_map(std::string_view data, std::size_t& pos, ZoneMap& zm);

/// A pushdown predicate for the binary log readers: keep records inside
/// [time_begin, time_end) that touch any of `midplanes`. Unset fields do
/// not constrain. The reader uses it twice — conservatively against v3
/// zone maps to skip whole blocks, then exactly against each decoded
/// record — so the result is identical to a full read followed by the
/// same record filter, regardless of block layout or format version
/// (a v2 file simply decodes every block).
///
/// RAS semantics: event_time in range, location touches a listed midplane
/// (rack-level locations touch every midplane of the rack). Job semantics:
/// the job's [start_time, end_time] overlaps the range (end >= begin and
/// start < end-bound) and its partition contains a listed midplane.
struct ReadPredicate {
  std::optional<TimePoint> time_begin;  ///< inclusive lower bound
  std::optional<TimePoint> time_end;    ///< exclusive upper bound
  std::vector<machine::MidplaneId> midplanes;  ///< empty = any location

  bool unconstrained() const {
    return !time_begin && !time_end && midplanes.empty();
  }
};

/// ReadPredicate compiled for the hot path: closed time bounds, the folded
/// bitmap for zone tests and a dense midplane membership table for exact
/// per-record tests.
class ZoneFilter {
 public:
  ZoneFilter(const ReadPredicate& pred, const machine::LocCodec& codec,
             int machine_midplanes);

  /// Conservative block test: may keep a non-matching block (folded bitmap
  /// collisions), never drops a matching one.
  bool may_match(const ZoneMap& zm) const;

  bool match_time(std::int64_t usec) const {
    return usec >= begin_usec_ && usec < end_usec_;
  }
  /// Overlap test for an interval (job lifetime vs the predicate range).
  bool match_span(std::int64_t start_usec, std::int64_t end_usec) const {
    return end_usec >= begin_usec_ && start_usec < end_usec_;
  }
  /// Exact location test for a packed RAS location key.
  bool match_location(std::uint32_t key) const;
  /// Exact test for a contiguous midplane range [first, first + count).
  bool match_midplane_range(machine::MidplaneId first, int count) const;

 private:
  std::int64_t begin_usec_;
  std::int64_t end_usec_;
  bool constrain_midplanes_ = false;
  std::uint64_t folded_ = 0;
  std::vector<bool> member_;  ///< dense membership, indexed by midplane id
  machine::LocCodec codec_;
};

}  // namespace coral::bin
