#include "coral/sched/policy.hpp"

#include <algorithm>
#include <utility>

#include "coral/common/error.hpp"

namespace coral::sched {

namespace {

bool in_zone(const bgp::Partition& part, int first, int count) {
  return part.first_midplane() >= first && part.end_midplane() <= first + count;
}

/// placement_rank with the hint reduced to the one bit it depends on.
int rank_of(const machine::PlacementZones& zones, const bgp::Partition& part, bool is_short) {
  const int size = part.midplane_count();
  if (size == 1) {
    if (is_short) {
      // Short narrow jobs: the head zone first, then the tail midplanes.
      if (in_zone(part, zones.head_first, zones.head_count)) return 0;
      if (in_zone(part, zones.tail_first, zones.tail_count)) return 1;
      if (in_zone(part, zones.small_first, zones.small_count)) return 2;
      return 3;
    }
    // Other narrow jobs: tail midplanes first, keep the wide-job region last.
    if (in_zone(part, zones.tail_first, zones.tail_count)) return 0;
    if (in_zone(part, zones.head_first, zones.head_count)) return 1;
    if (in_zone(part, zones.small_first, zones.small_count)) return 2;
    return 3;
  }
  if (size < zones.wide_threshold) {
    // Small multi-midplane jobs: the small-job zone, then the tail,
    // keeping the wide-job reservation as a last resort.
    if (in_zone(part, zones.small_first, zones.small_count)) return 0;
    if (in_zone(part, zones.tail_first, zones.tail_count)) return 1;
    if (in_zone(part, zones.head_first, zones.head_count)) return 2;
    return 3;
  }
  // Wide jobs: steer into the reserved block.
  if (in_zone(part, zones.wide_first, zones.wide_count)) return 0;
  if (part.first_midplane() * 2 >= zones.wide_first) return 1;  // overlaps the reservation
  return 2;
}

}  // namespace

int placement_rank(const SchedulerConfig& config, const machine::PlacementZones& zones,
                   const bgp::Partition& part, Usec runtime_hint) {
  return rank_of(zones, part, runtime_hint < config.short_job_threshold);
}

int placement_rank(const SchedulerConfig& config, const bgp::Partition& part,
                   Usec runtime_hint) {
  return placement_rank(config, machine::bgp_model().placement_zones(), part, runtime_hint);
}

PlacementTable::PlacementTable(const machine::MachineModel& machine,
                               const SchedulerConfig& config)
    : machine_(&machine),
      short_job_threshold_(config.short_job_threshold),
      resubmit_same_partition_prob_(config.resubmit_same_partition_prob),
      by_size_(static_cast<std::size_t>(machine.midplane_count()) + 1) {
  const machine::PlacementZones zones = machine.placement_zones();
  for (const int size : machine.legal_partition_sizes()) {
    const std::vector<bgp::Partition> address_order = machine.partitions_of_size(size);
    for (const bool is_short : {false, true}) {
      Order& order = by_size_[static_cast<std::size_t>(size)][is_short ? 1 : 0];
      std::vector<std::pair<int, bgp::Partition>> ranked;
      for (const bgp::Partition& p : address_order) {
        ranked.emplace_back(rank_of(zones, p, is_short), p);
      }
      std::stable_sort(ranked.begin(), ranked.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      for (std::size_t i = 0; i < ranked.size(); ++i) {
        order.parts.push_back(ranked[i].second);
        if (i + 1 == ranked.size() || ranked[i + 1].first != ranked[i].first) {
          order.group_ends.push_back(i + 1);
        }
      }
    }
  }
}

const PlacementTable::Order* PlacementTable::order(int midplane_count, Usec runtime_hint) const {
  if (midplane_count <= 0 || static_cast<std::size_t>(midplane_count) >= by_size_.size()) {
    return nullptr;
  }
  const Order& order = by_size_[static_cast<std::size_t>(midplane_count)]
                               [runtime_hint < short_job_threshold_ ? 1 : 0];
  return order.parts.empty() ? nullptr : &order;
}

std::optional<bgp::Partition> PlacementTable::choose(
    const PartitionPool& pool, int midplane_count, Usec runtime_hint,
    const std::optional<bgp::Partition>& previous, Rng& rng) const {
  CORAL_EXPECTS(&pool.machine() == machine_);
  // Resubmission affinity: reuse the previous partition when free.
  if (previous && previous->midplane_count() == midplane_count && pool.is_free(*previous) &&
      rng.bernoulli(resubmit_same_partition_prob_)) {
    return *previous;
  }
  const Order* ord = order(midplane_count, runtime_hint);
  if (ord == nullptr) return std::nullopt;
  // The first rank group with a free partition holds every best-ranked free
  // candidate; randomize among them so load spreads.
  std::size_t begin = 0;
  for (const std::size_t end : ord->group_ends) {
    std::uint64_t n_free = 0;
    for (std::size_t i = begin; i < end; ++i) n_free += pool.is_free(ord->parts[i]) ? 1 : 0;
    if (n_free > 0) {
      std::uint64_t pick = rng.uniform_index(n_free);
      for (std::size_t i = begin;; ++i) {
        if (!pool.is_free(ord->parts[i])) continue;
        if (pick == 0) return ord->parts[i];
        --pick;
      }
    }
    begin = end;
  }
  return std::nullopt;
}

const bgp::Partition& PlacementTable::preferred(int midplane_count, Usec runtime_hint) const {
  const Order* ord = order(midplane_count, runtime_hint);
  CORAL_EXPECTS(ord != nullptr);
  return ord->parts.front();
}

}  // namespace coral::sched
