// The machine layer: the data-declared MachineModel, the BG/P reference
// model's byte-identity with the pre-MachineModel pipeline, the BG/Q model's
// own grammar and partition algebra, the one grammar pinned by property on
// every kind of machine, and the calibrated scenario packs running end to
// end on non-BG/P machines.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "coral/common/error.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/fleet/fingerprint.hpp"
#include "coral/joblog/log.hpp"
#include "coral/machine/model.hpp"
#include "coral/sched/policy.hpp"
#include "coral/stream/accumulators.hpp"
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
// The refactor's contract: every BG/P analysis routed through bgp_model() is
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
  sched::RecentFailureAdvisor advisor(*config.machine, 6 * kUsecPerHour);
  config.advisor = &advisor;
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

// The BG/P model is declared as data; it answers what the hard-wired BG/P
// grammar answered (the property tests below pin the rest).
TEST(MachineDifferential, BgpModelDelegatesToBgpGrammar) {
  const MachineModel& m = machine::bgp_model();
  const auto loc = m.parse_location("R04-M0-N08-J12");
  EXPECT_EQ(loc, bgp::Location::make(bgp::LocationKind::ComputeCard, 4, 0, 8, 12));
  EXPECT_EQ(m.location_string(loc), "R04-M0-N08-J12");
  EXPECT_EQ(m.location_from_packed(loc.packed()), loc);

  EXPECT_EQ(m.legal_partition_sizes(), (std::vector<int>{1, 2, 4, 8, 16, 32, 48, 64, 80}));
  const std::vector<std::pair<int, std::size_t>> counts = {
      {1, 80}, {2, 40}, {4, 20}, {8, 10}, {16, 5}, {32, 2}, {48, 3}, {64, 2}, {80, 1}};
  for (const auto& [size, count] : counts) {
    EXPECT_EQ(m.partitions_of_size(size).size(), count) << size;
  }
  EXPECT_EQ(m.parse_partition("R08-R11"), bgp::Partition::unchecked(16, 8));
  EXPECT_EQ(m.partition_name(bgp::Partition::unchecked(16, 8)), "R08-R11");
}

// ---- BG/Q grammar and algebra ----------------------------------------------

TEST(BgqModel, LocationGrammar) {
  const MachineModel& m = machine::bgq_model();

  // BG/Q numbers compute cards J00..J31 (BG/P: J04..J35) and has 48 racks.
  const auto loc = m.parse_location("R47-M1-N15-J00");
  EXPECT_EQ(loc.rack_index(), 47);
  EXPECT_EQ(m.codec().midplanes(loc.packed()).first, 95);
  EXPECT_EQ(m.location_string(loc), "R47-M1-N15-J00");
  EXPECT_EQ(m.location_from_packed(loc.packed()), loc);

  EXPECT_THROW(m.parse_location("R48-M0"), ParseError);   // only 48 racks
  EXPECT_THROW(m.parse_location("R00-M0-N08-J35"), ParseError);  // J ends at 31
  EXPECT_THROW(machine::bgp_model().parse_location("R00-M0-N08-J00"),
               ParseError);  // and BG/P starts at J04

  EXPECT_EQ(m.location_string(m.midplane_location(95)), "R47-M1");
  EXPECT_EQ(m.codec().midplanes(m.midplane_location(94).packed()).first, 94);
}

TEST(BgqModel, LocationOnMidplaneStaysOnMidplane) {
  const MachineModel& m = machine::bgq_model();
  Rng rng(99);
  for (const auto kind : {bgp::LocationKind::Midplane, bgp::LocationKind::NodeCard,
                          bgp::LocationKind::ComputeCard, bgp::LocationKind::IoNode}) {
    for (const machine::MidplaneId mid : {0, 81, 95}) {
      const auto loc = m.location_on_midplane(kind, mid, rng);
      EXPECT_EQ(m.codec().midplanes(loc.packed()).first, mid);
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
// scenario packs: synth on bgq_model(), ingest-free columnar path, filtering,
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

// ---- one grammar, pinned by property ---------------------------------------
//
// Every machine shares one location grammar, one packed-key validator and
// one partition algebra; what differs is data. These properties hold on the
// two built-ins and on a data-declared machine that does not have 2
// midplanes per rack.

machine::Topology four_per_rack_topology() {
  machine::Topology topo;
  topo.name = "quad";
  topo.description = "12 racks of 4 midplanes";
  topo.racks = 12;
  topo.midplanes_per_rack = 4;
  return topo;
}

const machine::DataModel& four_per_rack() {
  static const machine::DataModel model(four_per_rack_topology());
  return model;
}

const machine::DataModel& one_per_rack() {
  static const machine::DataModel model = [] {
    machine::Topology topo;
    topo.name = "mono";
    topo.description = "10 racks of 1 midplane";
    topo.racks = 10;
    topo.midplanes_per_rack = 1;
    return machine::DataModel(topo);
  }();
  return model;
}

std::vector<const MachineModel*> grammar_machines() {
  return {&machine::bgp_model(), &machine::bgq_model(), &four_per_rack()};
}

/// Every valid location of a machine, enumerated from its Topology.
std::vector<bgp::Location> all_locations(const MachineModel& m) {
  using K = bgp::LocationKind;
  const machine::Topology& t = m.topology();
  std::vector<bgp::Location> out;
  for (int r = 0; r < t.racks; ++r) {
    out.push_back(bgp::Location::make(K::Rack, r, -1, -1, -1));
    for (int mp = 0; mp < t.midplanes_per_rack; ++mp) {
      out.push_back(bgp::Location::make(K::Midplane, r, mp, -1, -1));
      out.push_back(bgp::Location::make(K::ServiceCard, r, mp, -1, -1));
      for (int l = 0; l < t.link_cards_per_midplane; ++l) {
        out.push_back(bgp::Location::make(K::LinkCard, r, mp, l, -1));
      }
      for (int n = 0; n < t.node_cards_per_midplane; ++n) {
        out.push_back(bgp::Location::make(K::NodeCard, r, mp, n, -1));
        for (int j = 0; j < t.compute_cards_per_node_card; ++j) {
          out.push_back(bgp::Location::make(K::ComputeCard, r, mp, n, t.jslot_base + j));
        }
        for (int io = 0; io < t.io_nodes_per_node_card; ++io) {
          out.push_back(bgp::Location::make(K::IoNode, r, mp, n, io));
        }
      }
    }
  }
  return out;
}

TEST(MachineGrammar, EveryValidLocationRoundTrips) {
  for (const MachineModel* m : grammar_machines()) {
    for (const bgp::Location& loc : all_locations(*m)) {
      ASSERT_EQ(m->parse_location(m->location_string(loc)), loc) << m->name() << " " << loc.to_string();
      ASSERT_EQ(m->location_from_packed(loc.packed()), loc) << m->name() << " " << loc.to_string();
    }
  }
}

/// Sweeps every kind and midplane nibble, racks 0..racks, and boundary card
/// and sub values: the validator accepts exactly the packed keys of valid
/// locations, returns the Location whose packed() is the key, and rejects
/// everything else with ParseError.
void expect_key_sweep_accepts_exactly_valid_keys(const MachineModel* m) {
  const machine::Topology& t = m->topology();
  std::set<std::uint32_t> valid;
  for (const bgp::Location& loc : all_locations(*m)) valid.insert(loc.packed());

  // Per field: 0, 1, the last valid and first invalid value of each kind
  // that uses the field, the largest real value and the absent sentinel.
  std::set<std::uint32_t> cards = {0, 1, 0x3E, 0x3F};
  for (const int n : {t.node_cards_per_midplane, t.link_cards_per_midplane}) {
    cards.insert(static_cast<std::uint32_t>(n - 1));
    cards.insert(static_cast<std::uint32_t>(n));
  }
  std::set<std::uint32_t> subs = {0, 1, 0x3E, 0x3F};
  for (const int hi : {t.jslot_base + t.compute_cards_per_node_card, t.io_nodes_per_node_card}) {
    subs.insert(static_cast<std::uint32_t>(hi - 1));
    subs.insert(static_cast<std::uint32_t>(hi));
  }
  if (t.jslot_base > 0) subs.insert(static_cast<std::uint32_t>(t.jslot_base - 1));
  subs.insert(static_cast<std::uint32_t>(t.jslot_base));

  std::size_t accepted = 0;
  for (std::uint32_t kind = 0; kind < 8; ++kind) {
    for (std::uint32_t rack = 0; rack <= static_cast<std::uint32_t>(t.racks); ++rack) {
      for (std::uint32_t mp = 0; mp < 16; ++mp) {
        for (const std::uint32_t card : cards) {
          for (const std::uint32_t sub : subs) {
            const std::uint32_t key =
                kind << 24 | rack << 16 | mp << 12 | (card & 0x3F) << 6 | (sub & 0x3F);
            bool ok = false;
            try {
              ok = m->location_from_packed(key).packed() == key;
              ASSERT_TRUE(ok) << m->name() << " relocated key 0x" << std::hex << key;
            } catch (const ParseError&) {
              ok = false;
            }
            ASSERT_EQ(ok, valid.count(key) == 1) << m->name() << " key 0x" << std::hex << key;
            accepted += ok ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(accepted, 0u) << m->name();
}

TEST(MachineGrammar, KeySweepOnBgp) {
  expect_key_sweep_accepts_exactly_valid_keys(&machine::bgp_model());
}

TEST(MachineGrammar, KeySweepOnBgq) {
  expect_key_sweep_accepts_exactly_valid_keys(&machine::bgq_model());
}

TEST(MachineGrammar, KeySweepOnFourMidplanesPerRack) {
  expect_key_sweep_accepts_exactly_valid_keys(&four_per_rack());
}

// The three partition-legality predicates the built-ins and DataModel used
// before their ladders became data, frozen here as the oracle.
int frozen_bgp_rack_alignment(int racks) {
  switch (racks) {
    case 1: return 1;
    case 2: return 2;
    case 4: return 4;
    case 8: return 8;
    case 16: return 16;
    case 24: return 8;
    case 32: return 8;
    case 40: return 40;
    default: return 0;
  }
}

int frozen_bgq_rack_alignment(int racks) {
  switch (racks) {
    case 1: return 1;
    case 2: return 2;
    case 4: return 4;
    case 8: return 8;
    case 16: return 16;
    case 32: return 16;
    case 48: return 48;
    default: return 0;
  }
}

bool frozen_blue_gene_legal(int first, int count, int n, int (*rack_alignment)(int)) {
  if (first < 0 || count <= 0 || first + count > n) return false;
  if (count == 1) return true;
  if (count % 2 != 0 || first % 2 != 0) return false;
  const int align = rack_alignment(count / 2);
  return align > 0 && (first / 2) % align == 0;
}

bool frozen_data_model_legal(int first, int count, int n) {
  if (first < 0 || count <= 0 || first + count > n) return false;
  if (count == n) return first == 0;
  if ((count & (count - 1)) != 0) return false;
  return first % count == 0;
}

TEST(MachineGrammar, PartitionLegalityMatchesFrozenPredicates) {
  const auto sweep = [](const MachineModel& m, const auto& want) {
    const int n = m.midplane_count();
    for (int first = -1; first <= n + 1; ++first) {
      for (int count = -1; count <= n + 1; ++count) {
        ASSERT_EQ(m.is_legal_partition(first, count), want(first, count))
            << m.name() << " first " << first << " count " << count;
      }
    }
  };
  sweep(machine::bgp_model(), [](int f, int c) {
    return frozen_blue_gene_legal(f, c, 80, frozen_bgp_rack_alignment);
  });
  sweep(machine::bgq_model(), [](int f, int c) {
    return frozen_blue_gene_legal(f, c, 96, frozen_bgq_rack_alignment);
  });
  for (const MachineModel* m : {static_cast<const MachineModel*>(&four_per_rack()),
                                static_cast<const MachineModel*>(&one_per_rack())}) {
    const int n = m->midplane_count();
    sweep(*m, [n](int f, int c) { return frozen_data_model_legal(f, c, n); });
  }
}

// Machines without 2 midplanes per rack: every consumer of "which midplanes
// does this location touch" agrees with the codec.
TEST(MachineGrammar, MidplaneRuleFollowsTheCodecOffTwoPerRack) {
  for (const MachineModel* m : {static_cast<const MachineModel*>(&four_per_rack()),
                                static_cast<const MachineModel*>(&one_per_rack())}) {
    const machine::LocCodec& codec = m->codec();
    const int mpr = m->topology().midplanes_per_rack;

    // One job per legal partition of sizes 1 and 2, all running at t.
    joblog::JobLog jobs(*m);
    const joblog::ExecId exec = jobs.intern_exec("/bin/app");
    const joblog::UserId user = jobs.intern_user("u0");
    const joblog::ProjectId project = jobs.intern_project("p0");
    const TimePoint t0 = TimePoint::from_calendar(2009, 1, 1);
    std::int64_t id = 0;
    for (const int size : {1, 2}) {
      for (const bgp::Partition& p : m->partitions_of_size(size)) {
        joblog::JobRecord j;
        j.job_id = ++id;
        j.exec_id = exec;
        j.user_id = user;
        j.project_id = project;
        j.queue_time = t0;
        j.start_time = t0;
        j.end_time = t0 + kUsecPerHour;
        j.partition = p;
        jobs.append(j);
      }
    }
    jobs.finalize();
    const TimePoint t = t0 + kUsecPerMin;

    for (const bgp::Location& loc : all_locations(*m)) {
      if (loc.kind() != bgp::LocationKind::Rack && loc.kind() != bgp::LocationKind::NodeCard) {
        continue;
      }
      const std::uint32_t key = loc.packed();
      // The rule, written out from the fields.
      const int first = loc.rack_index() * mpr +
                        (loc.kind() == bgp::LocationKind::Rack ? 0 : static_cast<int>((key >> 12) & 0xF));
      const int end = loc.kind() == bgp::LocationKind::Rack ? (loc.rack_index() + 1) * mpr : first + 1;
      ASSERT_EQ(codec.midplanes(key).first, first) << m->name() << " " << loc.to_string();
      ASSERT_EQ(codec.midplanes(key).end, end) << m->name() << " " << loc.to_string();

      stream::MidplaneTallies by_loc(*m), by_key(*m);
      by_loc.add_group_rep(loc);
      by_key.add_group_rep(key);
      ASSERT_EQ(by_loc.fatal_events, by_key.fatal_events) << m->name() << " " << loc.to_string();
      double sum = 0;
      for (int mid = 0; mid < m->midplane_count(); ++mid) {
        const double v = by_key.fatal_events[static_cast<std::size_t>(mid)];
        sum += v;
        if (mid < first || mid >= end) {
          ASSERT_EQ(v, 0.0) << m->name() << " " << loc.to_string();
        }
      }
      ASSERT_DOUBLE_EQ(sum, 1.0);

      std::vector<std::size_t> want;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const bgp::Partition& p = jobs[j].partition;
        const bool covers = p.first_midplane() < end && first < p.end_midplane();
        ASSERT_EQ(p.covers_key(key, codec), covers) << m->name() << " " << loc.to_string();
        if (covers) want.push_back(j);
      }
      ASSERT_EQ(jobs.running_at(t, loc), want) << m->name() << " " << loc.to_string();
    }
  }
  // The 4-per-rack machine tallies R09-M3 at midplane 9 * 4 + 3.
  stream::MidplaneTallies tallies(four_per_rack());
  tallies.add_group_rep(four_per_rack().parse_location("R09-M3"));
  EXPECT_EQ(tallies.fatal_events[39], 1.0);
}

TEST(MachineGrammar, ScenariosRunOffTwoPerRack) {
  for (const MachineModel* m : {static_cast<const MachineModel*>(&four_per_rack()),
                                static_cast<const MachineModel*>(&one_per_rack())}) {
    const auto data = synth::generate(synth::base_scenario(*m, 42, 7));
    EXPECT_EQ(&data.ras.machine(), m);
    EXPECT_GT(data.jobs.size(), 0u) << m->name();
    const auto r = core::run_coanalysis(data.ras, data.jobs);
    EXPECT_GT(r.filtered.groups.size(), 0u) << m->name();
    ASSERT_EQ(r.fatal_events_per_midplane.size(), static_cast<std::size_t>(m->midplane_count()));
    double fatal = 0;
    for (const double v : r.fatal_events_per_midplane) fatal += v;
    EXPECT_DOUBLE_EQ(fatal, static_cast<double>(r.filtered.groups.size())) << m->name();
  }
}

}  // namespace
}  // namespace coral
