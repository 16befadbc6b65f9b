// The machine layer: the MachineModel interface, the BG/P reference model's
// byte-identity with the pre-MachineModel pipeline, the BG/Q model's own
// grammar and partition algebra, and the calibrated scenario packs running
// end to end on a non-BG/P machine.
#include <gtest/gtest.h>

#include <sstream>

#include "coral/common/error.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/fleet/fingerprint.hpp"
#include "coral/machine/model.hpp"
#include "coral/synth/intrepid.hpp"
#include "coral/synth/packs.hpp"

namespace coral {
namespace {

using machine::MachineModel;

// ---- registry --------------------------------------------------------------

TEST(MachineRegistry, BuiltinModels) {
  EXPECT_EQ(machine::find_model("bgp"), &machine::bgp_model());
  EXPECT_EQ(machine::find_model("bgq"), &machine::bgq_model());
  EXPECT_EQ(machine::find_model("bgl"), nullptr);
  ASSERT_GE(machine::all_models().size(), 2u);
  EXPECT_EQ(machine::all_models().front(), &machine::bgp_model());
}

TEST(MachineRegistry, TopologyDimensions) {
  const MachineModel& bgp = machine::bgp_model();
  EXPECT_EQ(bgp.midplane_count(), 80);
  EXPECT_EQ(bgp.codec().midplanes_per_rack, 2);
  EXPECT_EQ(bgp.topology().jslot_base, 4);

  const MachineModel& bgq = machine::bgq_model();
  EXPECT_EQ(bgq.midplane_count(), 96);
  EXPECT_EQ(bgq.codec().midplanes_per_rack, 2);
  EXPECT_EQ(bgq.topology().jslot_base, 0);
  EXPECT_EQ(bgq.topology().cores_per_node, 16);
}

// ---- BG/P byte-identity ----------------------------------------------------
//
// The refactor's contract: every BG/P analysis routed through BgpModel is
// byte-identical to the pre-MachineModel code. These fingerprints were
// captured from the tree *before* the machine layer existed — the CSV hashes
// pin every record field of a full synth run, the analysis numbers pin the
// whole co-analysis pipeline behind it.

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(MachineDifferential, BgpSynthFingerprint) {
  const auto data = synth::generate(synth::small_scenario(7, 21));
  EXPECT_EQ(data.ras.size(), 33671u);
  EXPECT_EQ(data.jobs.size(), 3897u);
  EXPECT_EQ(&data.ras.machine(), &machine::bgp_model());
  EXPECT_EQ(&data.jobs.machine(), &machine::bgp_model());

  std::ostringstream ras_csv, job_csv;
  data.ras.write_csv(ras_csv);
  data.jobs.write_csv(job_csv);
  EXPECT_EQ(fnv1a(ras_csv.str()), 0xb3cbd154e8d7ababull);
  EXPECT_EQ(fnv1a(job_csv.str()), 0xa24abca3c60bf504ull);
}

// The fault-aware and BG/Q placement paths, pinned by log fingerprint (every
// record field of both logs, in order) so a changed RNG draw order shows up
// even where the end-to-end goldens only carry tolerances.
TEST(MachineDifferential, BgpFaultAwareSynthFingerprint) {
  synth::ScenarioConfig config = synth::small_scenario(7, 21);
  config.sched.avoid_failed_window = 6 * kUsecPerHour;
  const auto data = synth::generate(config);
  EXPECT_EQ(data.ras.size(), 30051u);
  EXPECT_EQ(data.jobs.size(), 3823u);
  EXPECT_EQ(fleet::log_fingerprint(data.ras, data.jobs), 0x253606e9210a7e48ull);
}

TEST(MachineDifferential, BgqSynthFingerprint) {
  const auto data = synth::generate(
      synth::pack_scenario(machine::bgq_model(), "failure_storm", 11, 14));
  EXPECT_EQ(&data.ras.machine(), &machine::bgq_model());
  EXPECT_EQ(data.ras.size(), 39119u);
  EXPECT_EQ(data.jobs.size(), 2150u);
  EXPECT_EQ(fleet::log_fingerprint(data.ras, data.jobs), 0xf8e559d99a858e6cull);
}

TEST(MachineDifferential, BgpCoanalysisFingerprint) {
  const auto data = synth::generate(synth::small_scenario(7, 21));
  const auto r = core::run_coanalysis(data.ras, data.jobs);
  EXPECT_EQ(&r.machine(), &machine::bgp_model());

  EXPECT_EQ(r.filtered.groups.size(), 352u);
  EXPECT_EQ(r.matches.interruptions.size(), 110u);
  EXPECT_EQ(r.system_interruptions, 46u);
  EXPECT_EQ(r.application_interruptions, 64u);
  EXPECT_EQ(r.distinct_interrupted_jobs, 49u);

  ASSERT_EQ(r.fatal_events_per_midplane.size(), 80u);
  ASSERT_EQ(r.workload_per_midplane.size(), 80u);
  ASSERT_EQ(r.wide_workload_per_midplane.size(), 80u);
  double fsum = 0, wsum = 0, wwsum = 0;
  for (const double v : r.fatal_events_per_midplane) fsum += v;
  for (const double v : r.workload_per_midplane) wsum += v;
  for (const double v : r.wide_workload_per_midplane) wwsum += v;
  EXPECT_DOUBLE_EQ(r.fatal_events_per_midplane[0], 3.5);
  EXPECT_DOUBLE_EQ(fsum, 352.0);
  EXPECT_DOUBLE_EQ(wsum, 42060371.04479102);
  EXPECT_DOUBLE_EQ(wwsum, 6191108.3181119924);

  EXPECT_DOUBLE_EQ(r.fatal_before_jobfilter.weibull.shape(), 0.52944889812294071);
  EXPECT_DOUBLE_EQ(r.fatal_after_jobfilter.weibull.shape(), 0.52667415655712879);
}

TEST(MachineDifferential, BgpModelDelegatesToBgpGrammar) {
  const MachineModel& m = machine::bgp_model();
  const auto loc = m.parse_location("R04-M0-N08-J12");
  EXPECT_EQ(loc, bgp::Location::parse("R04-M0-N08-J12"));
  EXPECT_EQ(m.location_string(loc), "R04-M0-N08-J12");
  EXPECT_EQ(m.location_from_packed(loc.packed()), loc);

  EXPECT_EQ(m.legal_partition_sizes(), bgp::Partition::legal_sizes());
  for (const int size : m.legal_partition_sizes()) {
    EXPECT_EQ(m.partitions_of_size(size), bgp::Partition::all_of_size(size));
  }
  EXPECT_EQ(m.parse_partition("R08-R11"), bgp::Partition::parse("R08-R11"));
  EXPECT_EQ(m.partition_name(bgp::Partition(16, 8)), "R08-R11");
}

// ---- BG/Q grammar and algebra ----------------------------------------------

TEST(BgqModel, LocationGrammar) {
  const MachineModel& m = machine::bgq_model();

  // BG/Q numbers compute cards J00..J31 (BG/P: J04..J35) and has 48 racks.
  const auto loc = m.parse_location("R47-M1-N15-J00");
  EXPECT_EQ(loc.rack_index(), 47);
  EXPECT_EQ(loc.midplane_id(), 95);
  EXPECT_EQ(m.location_string(loc), "R47-M1-N15-J00");
  EXPECT_EQ(m.location_from_packed(loc.packed()), loc);

  EXPECT_THROW(m.parse_location("R48-M0"), ParseError);   // only 48 racks
  EXPECT_THROW(m.parse_location("R00-M0-N08-J35"), ParseError);  // J ends at 31
  EXPECT_THROW(machine::bgp_model().parse_location("R00-M0-N08-J00"),
               ParseError);  // and BG/P starts at J04

  EXPECT_EQ(m.location_string(m.midplane_location(95)), "R47-M1");
  EXPECT_EQ(m.midplane_location(94).midplane_id(), 94);
}

TEST(BgqModel, LocationOnMidplaneStaysOnMidplane) {
  const MachineModel& m = machine::bgq_model();
  Rng rng(99);
  for (const auto kind : {bgp::LocationKind::Midplane, bgp::LocationKind::NodeCard,
                          bgp::LocationKind::ComputeCard, bgp::LocationKind::IoNode}) {
    for (const machine::MidplaneId mid : {0, 81, 95}) {
      const auto loc = m.location_on_midplane(kind, mid, rng);
      EXPECT_EQ(loc.midplane_id(), mid);
      // Round-trips through the machine's own grammar and codec.
      EXPECT_EQ(m.parse_location(m.location_string(loc)), loc);
      EXPECT_EQ(m.location_from_packed(loc.packed()), loc);
    }
  }
}

TEST(BgqModel, PartitionAlgebra) {
  const MachineModel& m = machine::bgq_model();
  const std::vector<int> expected_sizes = {1, 2, 4, 8, 16, 32, 64, 96};
  EXPECT_EQ(m.legal_partition_sizes(), expected_sizes);

  EXPECT_EQ(m.partitions_of_size(1).size(), 96u);
  EXPECT_EQ(m.partitions_of_size(2).size(), 48u);
  EXPECT_EQ(m.partitions_of_size(32).size(), 3u);   // 16-rack blocks align to 16
  EXPECT_EQ(m.partitions_of_size(64).size(), 2u);   // racks 0-31 and 16-47
  EXPECT_EQ(m.partitions_of_size(96).size(), 1u);   // the full machine
  EXPECT_TRUE(m.partitions_of_size(48).empty());    // BG/P's 24-rack size is illegal

  EXPECT_TRUE(m.is_legal_partition(80, 16));
  EXPECT_FALSE(m.is_legal_partition(81, 2));  // racks start on even midplanes

  const auto part = m.parse_partition("R16-R47");
  EXPECT_EQ(part.first_midplane(), 32);
  EXPECT_EQ(part.midplane_count(), 64);
  EXPECT_EQ(m.partition_name(part), "R16-R47");
  EXPECT_EQ(m.partition_name(m.parse_partition("R47-M1")), "R47-M1");
  EXPECT_THROW(m.parse_partition("R08-R31"), ParseError);  // 24 racks: illegal here
}

TEST(BgqModel, PlacementZonesTileTheMachine) {
  for (const MachineModel* m : machine::all_models()) {
    const machine::PlacementZones z = m->placement_zones();
    // head + small + wide + tail partition [0, N) without gaps or overlap.
    EXPECT_EQ(z.head_first, 0) << m->name();
    EXPECT_EQ(z.small_first, z.head_first + z.head_count) << m->name();
    EXPECT_EQ(z.wide_first, z.small_first + z.small_count) << m->name();
    EXPECT_EQ(z.tail_first, z.wide_first + z.wide_count) << m->name();
    EXPECT_EQ(z.tail_first + z.tail_count, m->midplane_count()) << m->name();
    EXPECT_GE(z.wide_threshold, 1) << m->name();
  }
}

// ---- scenario packs --------------------------------------------------------

TEST(ScenarioPacks, Registry) {
  ASSERT_EQ(synth::scenario_packs().size(), 5u);
  for (const char* name : {"failure_storm", "maintenance_window",
                           "correlated_cascade", "resubmission_burst",
                           "multi_year_drift"}) {
    EXPECT_NE(synth::find_pack(name), nullptr) << name;
  }
  EXPECT_EQ(synth::find_pack("quiet_month"), nullptr);
  EXPECT_THROW(synth::pack_scenario(machine::bgq_model(), "quiet_month"),
               InvalidArgument);
}

TEST(ScenarioPacks, BaseScenarioRescalesToMachine) {
  const auto bgp = synth::base_scenario(machine::bgp_model(), 42, 21);
  const auto bgq = synth::base_scenario(machine::bgq_model(), 42, 21);

  // On the reference machine the remap is the identity.
  const synth::ScenarioConfig plain = synth::small_scenario(42, 21);
  EXPECT_EQ(bgp.workload.job_sizes, plain.workload.job_sizes);
  EXPECT_DOUBLE_EQ(bgp.faults.interrupting_rate_per_day,
                   plain.faults.interrupting_rate_per_day);

  // BG/Q: the ladder is the machine's own, every size legal there, and the
  // per-day rates scale with the midplane count.
  EXPECT_EQ(bgq.workload.job_sizes, machine::bgq_model().legal_partition_sizes());
  ASSERT_EQ(bgq.workload.size_weights.size(), bgq.workload.job_sizes.size());
  ASSERT_EQ(bgq.workload.runtime_weights.size(), bgq.workload.job_sizes.size());
  EXPECT_DOUBLE_EQ(bgq.faults.interrupting_rate_per_day,
                   plain.faults.interrupting_rate_per_day * 96.0 / 80.0);
}

TEST(ScenarioPacks, ApplyPackIsDeclarative) {
  auto config = synth::base_scenario(machine::bgq_model(), 42, 21);
  const double base_rate = config.faults.interrupting_rate_per_day;
  synth::apply_pack(config, *synth::find_pack("failure_storm"));
  EXPECT_DOUBLE_EQ(config.faults.interrupting_rate_per_day, base_rate * 4.0);
  EXPECT_DOUBLE_EQ(config.storm.cascade_prob, 0.55);
  EXPECT_FALSE(config.maintenance.enabled);

  auto drift = synth::pack_scenario(machine::bgq_model(), "multi_year_drift", 42, 21);
  EXPECT_DOUBLE_EQ(drift.faults.rate_drift_per_year, 0.5);
  EXPECT_EQ(drift.days, 730);

  auto mw = synth::pack_scenario(machine::bgq_model(), "maintenance_window", 42, 21);
  EXPECT_TRUE(mw.maintenance.enabled);
  EXPECT_EQ(mw.days, 21);  // no pack override: keeps the base horizon
}

// ---- BG/Q end to end -------------------------------------------------------
//
// The second machine runs the *full* co-analysis pipeline on its own
// scenario packs: synth on BgqModel, ingest-free columnar path, filtering,
// matching, per-midplane series sized 96. Goldens committed from seed 11 /
// 14 days; ±2% relative like the BG/P paper goldens.

struct BgqRun {
  synth::SynthResult data;
  core::CoAnalysisResult result;
};

BgqRun run_bgq_pack(const char* pack) {
  BgqRun run;
  synth::ScenarioConfig config =
      synth::pack_scenario(machine::bgq_model(), pack, 11, 14);
  config.days = 14;  // shrink the long-horizon packs to test scale
  run.data = synth::generate(config);
  run.result = core::run_coanalysis(run.data.ras, run.data.jobs);
  return run;
}

TEST(BgqEndToEnd, FailureStormPack) {
  const BgqRun run = run_bgq_pack("failure_storm");
  EXPECT_EQ(&run.data.ras.machine(), &machine::bgq_model());
  EXPECT_EQ(&run.result.machine(), &machine::bgq_model());

  EXPECT_NEAR(static_cast<double>(run.data.ras.size()), 39119.0, 39119.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(run.data.jobs.size()), 2150.0, 2150.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(run.result.filtered.groups.size()), 515.0,
              515.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(run.result.matches.interruptions.size()), 118.0,
              118.0 * 0.05);

  // Per-midplane series are machine-sized, and every location in the log
  // parses under the BG/Q grammar (would throw above rack 39 on BG/P).
  EXPECT_EQ(run.result.fatal_events_per_midplane.size(), 96u);
  bool beyond_bgp = false;
  for (const auto& ev : run.data.ras) {
    if (ev.location.rack_index() >= 40) beyond_bgp = true;
  }
  EXPECT_TRUE(beyond_bgp);
}

TEST(BgqEndToEnd, MaintenanceWindowPack) {
  const BgqRun run = run_bgq_pack("maintenance_window");
  EXPECT_NEAR(static_cast<double>(run.data.ras.size()), 15391.0, 15391.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(run.data.jobs.size()), 2085.0, 2085.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(run.result.filtered.groups.size()), 93.0,
              93.0 * 0.05);
  EXPECT_NEAR(static_cast<double>(run.result.matches.interruptions.size()), 34.0,
              34.0 * 0.15);

  // The drain actually drains: no job starts inside any window.
  const synth::ScenarioConfig config =
      synth::pack_scenario(machine::bgq_model(), "maintenance_window", 11, 14);
  std::size_t inside = 0;
  for (const auto& job : run.data.jobs) {
    if (job.start_time < config.maintenance.first) continue;
    if ((job.start_time - config.maintenance.first) % config.maintenance.period <
        config.maintenance.duration) {
      ++inside;
    }
  }
  EXPECT_EQ(inside, 0u);
}

TEST(BgqEndToEnd, DeterministicAcrossRuns) {
  const BgqRun a = run_bgq_pack("correlated_cascade");
  const BgqRun b = run_bgq_pack("correlated_cascade");
  ASSERT_EQ(a.data.ras.size(), b.data.ras.size());
  for (std::size_t i = 0; i < a.data.ras.size(); ++i) {
    ASSERT_EQ(a.data.ras[i].event_time, b.data.ras[i].event_time);
    ASSERT_EQ(a.data.ras[i].errcode, b.data.ras[i].errcode);
    ASSERT_EQ(a.data.ras[i].location.packed(), b.data.ras[i].location.packed());
  }
  EXPECT_EQ(a.result.filtered.groups.size(), b.result.filtered.groups.size());
}


// ---- runtime model registry + data-defined models ---------------------------

TEST(ModelRegistry, RegisterFindUnregisterRoundTrip) {
  machine::Topology topo;
  topo.name = "testbg";
  topo.description = "registry test machine";
  topo.racks = 2;
  const machine::DataModel model(topo);
  EXPECT_EQ(machine::find_model("testbg"), nullptr);
  ASSERT_TRUE(machine::register_model(model));
  EXPECT_EQ(machine::find_model("testbg"), &model);
  // all_models: builtins first, then the registration.
  const auto all = machine::all_models();
  ASSERT_GE(all.size(), 3u);
  EXPECT_EQ(all.front(), &machine::bgp_model());
  EXPECT_EQ(all.back(), &model);
  EXPECT_TRUE(machine::unregister_model("testbg"));
  EXPECT_EQ(machine::find_model("testbg"), nullptr);
  EXPECT_FALSE(machine::unregister_model("testbg"));
}

TEST(ModelRegistry, RejectsDuplicateAndBuiltinNames) {
  machine::Topology topo;
  topo.name = "bgp";  // collides with a builtin
  const machine::DataModel impostor(topo);
  EXPECT_FALSE(machine::register_model(impostor));
  EXPECT_EQ(machine::find_model("bgp"), &machine::bgp_model());

  machine::Topology t2;
  t2.name = "dupe";
  const machine::DataModel first(t2), second(t2);
  ASSERT_TRUE(machine::register_model(first));
  EXPECT_FALSE(machine::register_model(second));
  EXPECT_EQ(machine::find_model("dupe"), &first);
  EXPECT_TRUE(machine::unregister_model("dupe"));
}

TEST(ModelRegistry, DataModelOwnsItsStrings) {
  const machine::MachineModel* found = nullptr;
  {
    std::string name = "ephemeral";
    machine::Topology topo;
    topo.name = name.c_str();  // transient storage, as in a parsed handshake
    topo.racks = 1;
    static const machine::DataModel model(topo);
    name.assign("clobbered");  // DataModel must have copied, not aliased
    ASSERT_TRUE(machine::register_model(model));
    found = machine::find_model("ephemeral");
    EXPECT_EQ(found, &model);
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(std::string_view(found->topology().name), "ephemeral");
  EXPECT_TRUE(machine::unregister_model("ephemeral"));
}

TEST(ModelRegistry, DataModelPartitionLadderIsPowerOfTwo) {
  machine::Topology topo;
  topo.name = "ladder";
  topo.racks = 3;  // 6 midplanes -> ladder 1,2,4 + full machine 6
  const machine::DataModel model(topo);
  const std::vector<int> want = {1, 2, 4, 6};
  EXPECT_EQ(model.legal_partition_sizes(), want);
  EXPECT_TRUE(model.is_legal_partition(0, 2));
  EXPECT_TRUE(model.is_legal_partition(4, 2));
  EXPECT_FALSE(model.is_legal_partition(1, 2));   // misaligned
  EXPECT_FALSE(model.is_legal_partition(0, 3));   // not a power of two
  EXPECT_TRUE(model.is_legal_partition(0, 6));    // full machine
  EXPECT_FALSE(model.is_legal_partition(2, 6));   // full machine starts at 0
}

}  // namespace
}  // namespace coral
