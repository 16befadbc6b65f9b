#pragma once

#include <cstdint>
#include <vector>

#include "coral/bgp/location.hpp"
#include "coral/machine/codec.hpp"

namespace coral::bgp {

/// A schedulable partition: a contiguous range of midplanes.
///
/// The midplane is the minimum scheduling unit on Intrepid (§III-A); larger
/// partitions are whole racks joined with adjacent racks. This is a value
/// type only: which (first, size) pairs are legal, and how a partition is
/// named in a job log, is the machine's partition ladder
/// (machine::MachineModel::is_legal_partition, parse_partition).
class Partition {
 public:
  /// The single midplane 0.
  Partition() = default;

  /// Construct without a legality check (bounds only: first >= 0,
  /// count > 0). Throws InvalidArgument on a bound; legality is the
  /// machine's to check (machine::MachineModel::is_legal_partition).
  static Partition unchecked(MidplaneId first, int midplane_count);

  MidplaneId first_midplane() const { return first_; }
  int midplane_count() const { return count_; }
  MidplaneId end_midplane() const { return first_ + count_; }

  bool contains(MidplaneId mid) const { return mid >= first_ && mid < first_ + count_; }
  bool overlaps(const Partition& other) const {
    return first_ < other.end_midplane() && other.first_ < end_midplane();
  }

  /// True if the location with packed key `key` touches one of this
  /// partition's midplanes, by the machine codec's midplane rule. Works on
  /// the key so the matching hot loops test millions of (job, event) pairs
  /// without materializing a Location.
  bool covers_key(std::uint32_t key, const machine::LocCodec& codec) const {
    const machine::MidplaneRange r = codec.midplanes(key);
    return r.first < end_midplane() && first_ < r.end;
  }

  /// Midplane ids of this partition, ascending.
  std::vector<MidplaneId> midplanes() const;

  friend bool operator==(const Partition& a, const Partition& b) = default;

 private:
  MidplaneId first_ = 0;
  int count_ = 1;
};

}  // namespace coral::bgp
