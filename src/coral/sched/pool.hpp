#pragma once

#include <optional>
#include <vector>

#include "coral/bgp/partition.hpp"
#include "coral/machine/model.hpp"

namespace coral::sched {

/// Tracks which midplanes are occupied (by jobs or by diagnostics holds).
/// Sized by the machine it manages (default: the reference BG/P).
class PartitionPool {
 public:
  PartitionPool() : PartitionPool(machine::bgp_model()) {}
  explicit PartitionPool(const machine::MachineModel& machine)
      : machine_(&machine),
        busy_(static_cast<std::size_t>(machine.midplane_count()), 0) {}

  /// The machine whose midplanes this pool allocates.
  const machine::MachineModel& machine() const { return *machine_; }

  bool is_free(const bgp::Partition& part) const;
  bool midplane_busy(bgp::MidplaneId mid) const {
    return busy_[static_cast<std::size_t>(mid)] != 0;
  }

  /// Mark a partition's midplanes busy. Throws InvalidArgument if any is
  /// already busy (double allocation is a scheduler bug).
  void acquire(const bgp::Partition& part);

  /// Release a partition's midplanes. Throws InvalidArgument if any is
  /// already free.
  void release(const bgp::Partition& part);

  /// Mark midplanes busy regardless of current state (used for head-of-queue
  /// reservations and diagnostics holds over an overlay copy of the pool).
  void force_acquire(const bgp::Partition& part);

  /// Midplanes currently busy.
  std::size_t busy_count() const { return busy_count_; }

 private:
  const machine::MachineModel* machine_;
  std::vector<unsigned char> busy_;
  std::size_t busy_count_ = 0;
};

}  // namespace coral::sched
