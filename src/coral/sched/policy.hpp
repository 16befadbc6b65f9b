#pragma once

#include <array>
#include <optional>
#include <vector>

#include "coral/common/rng.hpp"
#include "coral/common/time.hpp"
#include "coral/ras/event.hpp"
#include "coral/sched/pool.hpp"

namespace coral::sched {

/// Placement and resubmission policy of the Cobalt-like scheduler,
/// modelling the Intrepid behaviours the paper documents (§V-B, §VI-D):
///   - short narrow jobs concentrate on midplanes 0–1,
///   - other small jobs prefer the high midplanes (64–79),
///   - wide jobs (>= 32 midplanes) are steered into midplanes 32–63,
///   - a resubmitted job lands on its previous partition with high
///     probability (paper: 57.44%).
struct SchedulerConfig {
  /// Probability that a resubmission is placed on its previous partition
  /// when that partition is free.
  double resubmit_same_partition_prob = 0.80;
  /// Runtime below which 1-midplane jobs are steered to midplanes 0–1.
  Usec short_job_threshold = 400 * kUsecPerSec;
  /// Reboot-before-execution: number of boot INFO records emitted per
  /// midplane at each job start (0 disables).
  int boot_records_per_midplane = 5;
  /// How long a resubmitted job waits for its previous partition (held for
  /// post-failure cleanup) before accepting any other placement.
  Usec resubmit_affinity_window = 70 * kUsecPerMin;
  /// Fault-aware placement (§VII what-if): avoid partitions containing a
  /// midplane that reported a FATAL event within this window, unless no
  /// other partition of the requested size is free. 0 disables.
  Usec avoid_failed_window = 0;
};

/// The placement preference score: lower is more preferred. Exposed for
/// tests and ablation benches.
int placement_rank(const SchedulerConfig& config, const machine::PlacementZones& zones,
                   const bgp::Partition& part, Usec runtime_hint);

/// BG/P-zone shorthand: ranks against the reference machine's zones
/// (midplanes 0–1 / 64–79 / 2–31 / 32–63).
int placement_rank(const SchedulerConfig& config, const bgp::Partition& part,
                   Usec runtime_hint);

/// The placement order of one machine under one SchedulerConfig, built
/// once and walked by every placement.
///
/// placement_rank depends on the runtime hint only through
/// `hint < short_job_threshold`, so (size, short-job bit) keys the whole
/// order: every legal partition of the size, sorted by rank and by address
/// within a rank (a stable sort of the address order), plus where each
/// rank group ends.
class PlacementTable {
 public:
  PlacementTable(const machine::MachineModel& machine, const SchedulerConfig& config);

  /// Choose a free partition of `pool` for a job of `midplane_count`
  /// midplanes, or nullopt when none of that size is free.
  ///
  /// `previous` is the partition of the job's previous run, if this is a
  /// resubmission: when it has the requested size and is free, one
  /// bernoulli(resubmit_same_partition_prob) draw decides whether to reuse
  /// it. Otherwise the first rank group with a free partition wins, and one
  /// uniform_index draw picks among its free partitions in address order.
  /// No draw is made when nothing is free. `pool` must manage this table's
  /// machine.
  std::optional<bgp::Partition> choose(const PartitionPool& pool, int midplane_count,
                                       Usec runtime_hint,
                                       const std::optional<bgp::Partition>& previous,
                                       Rng& rng) const;

  /// The most preferred partition of a size, free or not: the target of a
  /// blocked queue head's reservation. Throws InvalidArgument for a size
  /// the machine cannot place.
  const bgp::Partition& preferred(int midplane_count, Usec runtime_hint) const;

 private:
  /// One (size, short-job bit) key's partitions in placement order.
  struct Order {
    std::vector<bgp::Partition> parts;
    std::vector<std::size_t> group_ends;  ///< one past each rank group's last entry
  };

  /// nullptr for a size that is not legal on the machine.
  const Order* order(int midplane_count, Usec runtime_hint) const;

  const machine::MachineModel* machine_;
  Usec short_job_threshold_;
  double resubmit_same_partition_prob_;
  /// Indexed by size: [0] long jobs, [1] short jobs; empty for illegal sizes.
  std::vector<std::array<Order, 2>> by_size_;
};

/// Live placement advice from an external failure model (the prediction
/// layer). The scheduler feeds it every RAS record as it is emitted and
/// consults it before each placement: a midplane with avoid(m, now) == true
/// is treated as busy unless no other partition of the requested size is
/// free — the same soft-avoidance contract as `avoid_failed_window`, driven
/// by predictions instead of past failures.
class PlacementAdvisor {
 public:
  virtual ~PlacementAdvisor() = default;
  virtual void on_record(const ras::RasEvent& event) = 0;
  virtual bool avoid(machine::MidplaneId midplane, TimePoint now) const = 0;
};

}  // namespace coral::sched
