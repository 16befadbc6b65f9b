#include "coral/sched/pool.hpp"

#include "coral/common/error.hpp"

namespace coral::sched {

bool PartitionPool::is_free(const bgp::Partition& part) const {
  for (bgp::MidplaneId m = part.first_midplane(); m < part.end_midplane(); ++m) {
    if (busy_[static_cast<std::size_t>(m)] != 0) return false;
  }
  return true;
}

void PartitionPool::acquire(const bgp::Partition& part) {
  CORAL_EXPECTS(is_free(part));
  for (bgp::MidplaneId m = part.first_midplane(); m < part.end_midplane(); ++m) {
    busy_[static_cast<std::size_t>(m)] = 1;
  }
  busy_count_ += static_cast<std::size_t>(part.midplane_count());
}

void PartitionPool::release(const bgp::Partition& part) {
  for (bgp::MidplaneId m = part.first_midplane(); m < part.end_midplane(); ++m) {
    CORAL_EXPECTS(busy_[static_cast<std::size_t>(m)] != 0);
    busy_[static_cast<std::size_t>(m)] = 0;
  }
  busy_count_ -= static_cast<std::size_t>(part.midplane_count());
}

void PartitionPool::force_acquire(const bgp::Partition& part) {
  for (bgp::MidplaneId m = part.first_midplane(); m < part.end_midplane(); ++m) {
    if (busy_[static_cast<std::size_t>(m)] == 0) {
      busy_[static_cast<std::size_t>(m)] = 1;
      busy_count_ += 1;
    }
  }
}

}  // namespace coral::sched
