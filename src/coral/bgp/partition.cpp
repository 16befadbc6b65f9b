#include "coral/bgp/partition.hpp"

#include <string>

#include "coral/common/error.hpp"

namespace coral::bgp {

Partition Partition::unchecked(MidplaneId first, int midplane_count) {
  if (first < 0 || midplane_count <= 0) {
    throw InvalidArgument("partition bounds: first midplane " + std::to_string(first) +
                          ", size " + std::to_string(midplane_count));
  }
  Partition p;
  p.first_ = first;
  p.count_ = midplane_count;
  return p;
}

std::vector<MidplaneId> Partition::midplanes() const {
  std::vector<MidplaneId> out;
  out.reserve(static_cast<std::size_t>(count_));
  for (MidplaneId m = first_; m < first_ + count_; ++m) out.push_back(m);
  return out;
}

}  // namespace coral::bgp
