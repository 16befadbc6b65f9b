// The scheduler's partition pool and placement policy. PlacementTable is
// pinned to a frozen copy of the per-call policy it replaced (the oracle
// below): the same partition and the same RNG draws, on BG/P, BG/Q and a
// data-defined machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "coral/common/error.hpp"
#include "coral/sched/policy.hpp"
#include "coral/sched/pool.hpp"

#include "bgp_fixture.hpp"

namespace coral::sched {
namespace {

using bgp::Partition;

// ---- frozen oracle -----------------------------------------------------------
//
// The per-call placement PlacementTable replaced, kept as it was: rebuild the
// size's legal partitions, keep the free ones, stable-sort them by rank and
// draw among the best-ranked.

std::vector<Partition> free_partitions(const PartitionPool& pool, int midplane_count) {
  std::vector<Partition> out;
  for (const Partition& p : pool.machine().partitions_of_size(midplane_count)) {
    if (pool.is_free(p)) out.push_back(p);
  }
  return out;
}

std::optional<Partition> choose_partition(const SchedulerConfig& config,
                                          const PartitionPool& pool, int midplane_count,
                                          Usec runtime_hint,
                                          const std::optional<Partition>& previous,
                                          Rng& rng) {
  if (previous && previous->midplane_count() == midplane_count && pool.is_free(*previous) &&
      rng.bernoulli(config.resubmit_same_partition_prob)) {
    return *previous;
  }
  std::vector<Partition> candidates = free_partitions(pool, midplane_count);
  if (candidates.empty()) return std::nullopt;
  const machine::PlacementZones zones = pool.machine().placement_zones();
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](const Partition& a, const Partition& b) {
                     return placement_rank(config, zones, a, runtime_hint) <
                            placement_rank(config, zones, b, runtime_hint);
                   });
  const int best = placement_rank(config, zones, candidates.front(), runtime_hint);
  std::size_t n_best = 0;
  while (n_best < candidates.size() &&
         placement_rank(config, zones, candidates[n_best], runtime_hint) == best) {
    ++n_best;
  }
  return candidates[rng.uniform_index(n_best)];
}

/// A machine that is neither built-in: 48 midplanes, ladder 1..32 + 48.
const machine::DataModel& data_model() {
  static const machine::DataModel model = [] {
    machine::Topology topo;
    topo.name = "sched48";
    topo.racks = 24;
    return machine::DataModel(topo);
  }();
  return model;
}

const PlacementTable& bgp_table() {
  static const PlacementTable table(machine::bgp_model(), SchedulerConfig{});
  return table;
}

// ---- pool --------------------------------------------------------------------

TEST(PartitionPool, AcquireReleaseRoundTrip) {
  PartitionPool pool;
  const Partition p = testing::bgp_part("R00");
  EXPECT_TRUE(pool.is_free(p));
  pool.acquire(p);
  EXPECT_FALSE(pool.is_free(p));
  EXPECT_TRUE(pool.midplane_busy(0));
  EXPECT_TRUE(pool.midplane_busy(1));
  EXPECT_FALSE(pool.midplane_busy(2));
  pool.release(p);
  EXPECT_TRUE(pool.is_free(p));
  EXPECT_EQ(pool.busy_count(), 0u);
}

TEST(PartitionPool, DoubleAcquireThrows) {
  PartitionPool pool;
  pool.acquire(testing::bgp_part("R00-M0"));
  EXPECT_THROW(pool.acquire(testing::bgp_part("R00-M0")), InvalidArgument);
  // Overlapping partition also fails.
  EXPECT_THROW(pool.acquire(testing::bgp_part("R00")), InvalidArgument);
}

TEST(PartitionPool, ReleaseFreeThrows) {
  PartitionPool pool;
  EXPECT_THROW(pool.release(testing::bgp_part("R00-M0")), InvalidArgument);
}

TEST(PartitionPool, ForceAcquireIsIdempotent) {
  PartitionPool pool;
  pool.acquire(testing::bgp_part("R00-M0"));
  pool.force_acquire(testing::bgp_part("R00"));  // overlaps the busy midplane
  EXPECT_EQ(pool.busy_count(), 2u);
  pool.release(testing::bgp_part("R00"));
  EXPECT_EQ(pool.busy_count(), 0u);
}

TEST(PartitionPool, FreePartitionsShrinkUnderLoad) {
  PartitionPool pool;
  EXPECT_EQ(free_partitions(pool, 80).size(), 1u);
  pool.acquire(testing::bgp_part("R20-M0"));
  EXPECT_TRUE(free_partitions(pool, 80).empty());
  EXPECT_EQ(free_partitions(pool, 1).size(), 79u);
}

// ---- policy ------------------------------------------------------------------

TEST(Policy, ShortNarrowJobsPreferMidplanes0And1) {
  SchedulerConfig config;
  const Usec short_rt = 100 * kUsecPerSec;
  EXPECT_LT(placement_rank(config, testing::bgp_part(0, 1), short_rt),
            placement_rank(config, testing::bgp_part(70, 1), short_rt));
  EXPECT_LT(placement_rank(config, testing::bgp_part(70, 1), short_rt),
            placement_rank(config, testing::bgp_part(40, 1), short_rt));
}

TEST(Policy, LongNarrowJobsPreferHighMidplanes) {
  SchedulerConfig config;
  const Usec long_rt = 8000 * kUsecPerSec;
  EXPECT_LT(placement_rank(config, testing::bgp_part(70, 1), long_rt),
            placement_rank(config, testing::bgp_part(0, 1), long_rt));
  EXPECT_LT(placement_rank(config, testing::bgp_part(0, 1), long_rt),
            placement_rank(config, testing::bgp_part(40, 1), long_rt));
}

TEST(Policy, WideJobsPreferReservedRegion) {
  SchedulerConfig config;
  const auto p32 = machine::bgp_model().partitions_of_size(32);
  ASSERT_EQ(p32.size(), 2u);
  // The partition inside midplanes 32..63 ranks ahead of midplanes 0..31.
  EXPECT_LT(placement_rank(config, p32[1], kUsecPerHour),
            placement_rank(config, p32[0], kUsecPerHour));
}

TEST(Policy, MidSizeJobsAvoidWideRegion) {
  SchedulerConfig config;
  EXPECT_LT(placement_rank(config, testing::bgp_part(8, 4), kUsecPerHour),
            placement_rank(config, testing::bgp_part(40, 4), kUsecPerHour));
}

TEST(Policy, ChoosesFreePartitionOfRequestedSize) {
  PartitionPool pool;
  Rng rng(1);
  const auto part = bgp_table().choose(pool, 4, kUsecPerHour, std::nullopt, rng);
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->midplane_count(), 4);
}

TEST(Policy, ReturnsNulloptWhenNothingFits) {
  PartitionPool pool;
  pool.acquire(testing::bgp_part(0, 80));
  Rng rng(1);
  EXPECT_FALSE(bgp_table().choose(pool, 1, kUsecPerHour, std::nullopt, rng));
}

TEST(Policy, ResubmissionAffinityReusesPreviousPartition) {
  SchedulerConfig config;
  config.resubmit_same_partition_prob = 1.0;
  PartitionPool pool;
  Rng rng(2);
  const Partition prev = testing::bgp_part("R17");
  const auto part =
      PlacementTable(pool.machine(), config).choose(pool, 2, kUsecPerHour, prev, rng);
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(*part, prev);
}

TEST(Policy, AffinityIgnoredWhenPreviousBusy) {
  SchedulerConfig config;
  config.resubmit_same_partition_prob = 1.0;
  PartitionPool pool;
  const Partition prev = testing::bgp_part("R17");
  pool.acquire(prev);
  Rng rng(3);
  const auto part =
      PlacementTable(pool.machine(), config).choose(pool, 2, kUsecPerHour, prev, rng);
  ASSERT_TRUE(part.has_value());
  EXPECT_NE(*part, prev);
}

TEST(Policy, AffinityIgnoredOnSizeChange) {
  SchedulerConfig config;
  config.resubmit_same_partition_prob = 1.0;
  PartitionPool pool;
  Rng rng(4);
  const Partition prev = testing::bgp_part("R17");
  const auto part =
      PlacementTable(pool.machine(), config).choose(pool, 4, kUsecPerHour, prev, rng);
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->midplane_count(), 4);
}

class PolicyAllSizesP : public ::testing::TestWithParam<int> {};

TEST_P(PolicyAllSizesP, AlwaysPlacesOnEmptyMachine) {
  PartitionPool pool;
  Rng rng(5);
  const auto part = bgp_table().choose(pool, GetParam(), kUsecPerHour, std::nullopt, rng);
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->midplane_count(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, PolicyAllSizesP,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 48, 64, 80));

// ---- PlacementTable against the oracle ---------------------------------------

/// Randomized pool occupancies (a fresh busy fraction per trial, from empty
/// to full); for every legal size, a short and a long hint, and `previous`
/// absent, free, busy or of another size, both sides draw from Rngs forked
/// from one seed and must return the same partition (or nullopt) and leave
/// their Rngs at the same next draw.
void expect_table_matches_oracle(const machine::MachineModel& machine,
                                 const SchedulerConfig& config, std::uint64_t seed) {
  const PlacementTable table(machine, config);
  const std::vector<int>& sizes = machine.legal_partition_sizes();
  const std::array<Usec, 2> hints = {config.short_job_threshold - 1,
                                     config.short_job_threshold};
  Rng gen(seed);
  std::size_t placed = 0, reused = 0, none = 0;
  for (int trial = 0; trial < 150; ++trial) {
    PartitionPool pool(machine);
    const double load = gen.uniform();
    for (machine::MidplaneId m = 0; m < machine.midplane_count(); ++m) {
      if (gen.bernoulli(load)) pool.force_acquire(Partition::unchecked(m, 1));
    }
    for (const int size : sizes) {
      std::vector<Partition> free, busy;
      for (const Partition& p : machine.partitions_of_size(size)) {
        (pool.is_free(p) ? free : busy).push_back(p);
      }
      const int other = size == sizes.front() ? sizes.back() : sizes.front();
      std::vector<std::optional<Partition>> previous = {
          std::nullopt, machine.partitions_of_size(other).front()};
      if (!free.empty()) previous.push_back(free[gen.uniform_index(free.size())]);
      if (!busy.empty()) previous.push_back(busy[gen.uniform_index(busy.size())]);
      for (const Usec hint : hints) {
        for (const std::optional<Partition>& prev : previous) {
          const std::uint64_t draw_seed = gen.next();
          Rng want_rng(draw_seed);
          Rng got_rng(draw_seed);
          const auto want = choose_partition(config, pool, size, hint, prev, want_rng);
          const auto got = table.choose(pool, size, hint, prev, got_rng);
          ASSERT_EQ(got, want) << machine.name() << " trial " << trial << " size " << size;
          ASSERT_EQ(got_rng.next(), want_rng.next())
              << machine.name() << " trial " << trial << " size " << size;
          if (!got) {
            ++none;
          } else if (prev && *got == *prev) {
            ++reused;
          } else {
            ++placed;
          }
        }
      }
    }
  }
  // Every branch was exercised: walks that place, affinity reuse, no fit.
  EXPECT_GT(placed, 0u);
  EXPECT_GT(reused, 0u);
  EXPECT_GT(none, 0u);
}

TEST(PlacementTable, MatchesOracleOnBgp) {
  expect_table_matches_oracle(machine::bgp_model(), SchedulerConfig{}, 101);
  SchedulerConfig tuned;
  tuned.short_job_threshold = 2 * kUsecPerHour;
  tuned.resubmit_same_partition_prob = 0.5;
  expect_table_matches_oracle(machine::bgp_model(), tuned, 102);
}

TEST(PlacementTable, MatchesOracleOnBgq) {
  expect_table_matches_oracle(machine::bgq_model(), SchedulerConfig{}, 103);
}

TEST(PlacementTable, MatchesOracleOnDataModel) {
  expect_table_matches_oracle(data_model(), SchedulerConfig{}, 104);
}

TEST(PlacementTable, PreferredIsFrontOfRankSort) {
  const SchedulerConfig config;
  for (const machine::MachineModel* machine :
       {&machine::bgp_model(), &machine::bgq_model(),
        static_cast<const machine::MachineModel*>(&data_model())}) {
    const PlacementTable table(*machine, config);
    const machine::PlacementZones zones = machine->placement_zones();
    for (const int size : machine->legal_partition_sizes()) {
      for (const Usec hint : {config.short_job_threshold - 1, config.short_job_threshold}) {
        std::vector<Partition> cands = machine->partitions_of_size(size);
        std::stable_sort(cands.begin(), cands.end(), [&](const Partition& a, const Partition& b) {
          return placement_rank(config, zones, a, hint) < placement_rank(config, zones, b, hint);
        });
        EXPECT_EQ(table.preferred(size, hint), cands.front())
            << machine->name() << " size " << size;
      }
    }
  }
}

TEST(PlacementTable, RejectsIllegalSizeAndForeignPool) {
  EXPECT_THROW(bgp_table().preferred(3, kUsecPerHour), InvalidArgument);
  PartitionPool pool;
  Rng rng(6);
  EXPECT_FALSE(bgp_table().choose(pool, 3, kUsecPerHour, std::nullopt, rng));
  const PartitionPool bgq_pool(machine::bgq_model());
  EXPECT_THROW(bgp_table().choose(bgq_pool, 1, kUsecPerHour, std::nullopt, rng),
               InvalidArgument);
}

}  // namespace
}  // namespace coral::sched
