// Prediction subsystem suite: rule-miner ground truth, RuleTable
// serialization hardening, online/offline predictor parity, determinism
// across worker pools and engines, and the evaluation floors the CI
// prediction stage gates on.
//
// The labeled corpus lives in predict_fixture.hpp: every chain count is
// known by construction, so the expected rule set and predictor tallies are
// written down there rather than re-derived from the code under test.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bgp_fixture.hpp"
#include "corrupt.hpp"
#include "frontend_oracle.hpp"
#include "predict_fixture.hpp"

#include "coral/common/binary_frame.hpp"
#include "coral/common/error.hpp"
#include "coral/common/parallel.hpp"
#include "coral/common/rng.hpp"
#include "coral/context.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/joblog/binary_io.hpp"
#include "coral/obs/obs.hpp"
#include "coral/predict/evaluate.hpp"
#include "coral/predict/miner.hpp"
#include "coral/predict/predictor.hpp"
#include "coral/predict/rules.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/stream/session.hpp"
#include "coral/synth/packs.hpp"
#include "coral/synth/scenario.hpp"

namespace coral {
namespace {

// ---------------------------------------------------------------------------
// Miner vs the labeled corpus.

TEST(PredictMiner, RecoversExpectedRulesFromChainCorpus) {
  const ras::Catalog& cat = ras::default_catalog();
  const predict::RuleTable got =
      predict::mine_rules(testing::chain_columns(cat), testing::chain_identification(cat),
                          cat, testing::chain_miner_config());
  EXPECT_EQ(got, testing::chain_expected_rules(cat));
}

TEST(PredictMiner, RestrictTargetsDropsUnlabeledTargets) {
  const ras::Catalog& cat = ras::default_catalog();
  const testing::ChainCodes codes = testing::chain_codes(cat);
  core::IdentificationResult id = testing::chain_identification(cat);
  id.verdicts.erase(codes.b);  // B no longer interruption-related
  const predict::RuleTable got = predict::mine_rules(
      testing::chain_columns(cat), id, cat, testing::chain_miner_config());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.rules[0], testing::chain_expected_rules(cat).rules[1]);  // C -> D
}

TEST(PredictMiner, RestrictTargetsOffMinesSamePairsOnThisCorpus) {
  // With the verdict gate off, the corpus still yields exactly the two
  // qualifying pairs: A->D is below min_support and F->D below the machine
  // confidence floor, labeled or not.
  const ras::Catalog& cat = ras::default_catalog();
  predict::MinerConfig config = testing::chain_miner_config();
  config.restrict_targets = false;
  const predict::RuleTable got = predict::mine_rules(
      testing::chain_columns(cat), core::IdentificationResult{}, cat, config);
  EXPECT_EQ(got, testing::chain_expected_rules(cat));
}

TEST(PredictMiner, ConfidenceFloorGatesMachineRules) {
  // F -> D co-occurs 4 times over 10 F occurrences: invisible at the 0.7
  // machine floor, mined as a machine rule the moment the floor drops to
  // its 0.4 confidence (never midplane-scoped — F and D share no midplane).
  const ras::Catalog& cat = ras::default_catalog();
  const testing::ChainCodes codes = testing::chain_codes(cat);
  predict::MinerConfig config = testing::chain_miner_config();
  config.min_confidence = 0.4;
  const predict::RuleTable got = predict::mine_rules(
      testing::chain_columns(cat), testing::chain_identification(cat), cat, config);
  ASSERT_EQ(got.size(), 3u);
  const predict::Rule fd{codes.f, codes.d, predict::RuleScope::Machine, kUsecPerHour,
                         /*support=*/4, /*precursor_count=*/10};
  EXPECT_EQ(got.rules[2], fd);
  EXPECT_DOUBLE_EQ(got.rules[2].confidence(), 0.4);
}

TEST(PredictMiner, MaxRulesKeepsHighestSupportInMinerOrder) {
  const ras::Catalog& cat = ras::default_catalog();
  predict::MinerConfig config = testing::chain_miner_config();
  config.max_rules = 1;
  const predict::RuleTable got = predict::mine_rules(
      testing::chain_columns(cat), testing::chain_identification(cat), cat, config);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.rules[0], testing::chain_expected_rules(cat).rules[0]);  // support 8
}

// ---------------------------------------------------------------------------
// RuleTable serialization: round trips and hardening.

TEST(PredictRules, SerializeRoundTripsExpectedRules) {
  const predict::RuleTable table = testing::chain_expected_rules();
  EXPECT_EQ(predict::RuleTable::deserialize(table.serialize()), table);
  EXPECT_EQ(predict::RuleTable::deserialize(predict::RuleTable{}.serialize()),
            predict::RuleTable{});
}

TEST(PredictRules, SerializeRoundTripsRandomTables) {
  const ras::Catalog& cat = ras::default_catalog();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    predict::RuleTable table;
    const std::size_t n = rng.uniform_index(64);
    for (std::size_t i = 0; i < n; ++i) {
      predict::Rule r;
      r.precursor = static_cast<ras::ErrcodeId>(rng.uniform_index(cat.size()));
      r.target = static_cast<ras::ErrcodeId>(rng.uniform_index(cat.size()));
      r.scope = rng.uniform_index(2) == 0 ? predict::RuleScope::Midplane
                                          : predict::RuleScope::Machine;
      r.window = 1 + static_cast<Usec>(rng.uniform_index(48)) * kUsecPerHour;
      r.precursor_count = 1 + static_cast<std::uint32_t>(rng.uniform_index(1000000));
      r.support = static_cast<std::uint32_t>(
          rng.uniform_index(static_cast<std::size_t>(r.precursor_count) + 1));
      table.rules.push_back(r);
    }
    EXPECT_EQ(predict::RuleTable::deserialize(table.serialize(), cat), table)
        << "seed " << seed;
  }
}

/// Rewrite `count` bytes of the CBLK payload at `payload_offset` and repair
/// the frame CRC, so the damage reaches the validation layer instead of
/// being caught by framing.
std::string patch_payload(std::string bytes, std::size_t payload_offset,
                          const void* data, std::size_t count) {
  const std::size_t frame = 8;  // after the "CRUL" file header
  std::uint32_t size = 0;
  std::memcpy(&size, bytes.data() + frame + sizeof bin::kBlockMagic, sizeof size);
  std::memcpy(bytes.data() + frame + bin::kBlockHeaderBytes + payload_offset, data, count);
  const std::uint32_t crc = bin::crc32(bytes.data() + frame + bin::kBlockHeaderBytes, size);
  std::memcpy(bytes.data() + frame + sizeof bin::kBlockMagic + sizeof size, &crc,
              sizeof crc);
  return bytes;
}

TEST(PredictRules, DeserializeRejectsCraftedFieldDamage) {
  const ras::Catalog& cat = ras::default_catalog();
  const std::string good = testing::chain_expected_rules(cat).serialize();
  const auto expect_rejected = [&](const std::string& bytes, const char* what) {
    EXPECT_THROW((void)predict::RuleTable::deserialize(bytes, cat), ParseError) << what;
  };

  std::string bad = good;
  bad[0] ^= 0x40;
  expect_rejected(bad, "wrong file magic");
  bad = good;
  bad[4] = 9;
  expect_rejected(bad, "unknown version");
  expect_rejected(good.substr(0, good.size() - 1), "truncated frame");
  expect_rejected(good.substr(0, 7), "truncated header");
  expect_rejected(good + "junk", "trailing garbage");
  expect_rejected("", "empty input");

  // Payload damage with a repaired CRC: the strict field validation, not
  // the framing layer, must catch each of these. Payload layout:
  // 'T' | u32 count | count x 25-byte rules.
  const auto rule_at = [](std::size_t i, std::size_t field) { return 5 + i * 25 + field; };
  const char tag = 'X';
  expect_rejected(patch_payload(good, 0, &tag, 1), "wrong payload tag");
  const std::uint32_t big_count = 3;
  expect_rejected(patch_payload(good, 1, &big_count, 4), "count beyond payload");
  const std::uint8_t bad_scope = 7;
  expect_rejected(patch_payload(good, rule_at(0, 8), &bad_scope, 1), "invalid scope");
  const std::int64_t zero_window = 0;
  expect_rejected(patch_payload(good, rule_at(0, 9), &zero_window, 8), "zero window");
  const std::int32_t out_of_range = static_cast<std::int32_t>(cat.size());
  expect_rejected(patch_payload(good, rule_at(0, 0), &out_of_range, 4),
                  "precursor beyond catalog");
  const std::int32_t negative = -1;
  expect_rejected(patch_payload(good, rule_at(1, 4), &negative, 4), "negative target");
  const std::uint32_t eleven = 11;
  expect_rejected(patch_payload(good, rule_at(0, 17), &eleven, 4),
                  "support > precursor_count");
  const std::uint32_t zero = 0;
  std::string no_count = patch_payload(good, rule_at(1, 17), &zero, 4);
  expect_rejected(patch_payload(no_count, rule_at(1, 21), &zero, 4),
                  "zero precursor_count");
}

TEST(FuzzSmokeRuleTable, CorruptedTablesRejectCleanlyOrStayValid) {
  const ras::Catalog& cat = ras::default_catalog();
  const std::string good = testing::chain_expected_rules(cat).serialize();
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    Rng rng(seed);
    std::string bytes = good;
    switch (rng.uniform_index(4)) {
      case 0: bytes = testing::truncate_bytes(bytes, rng, 0.1); break;
      case 1: bytes = testing::flip_bits(bytes, rng, 1 + static_cast<int>(rng.uniform_index(4))); break;
      case 2: bytes.insert(rng.uniform_index(bytes.size()), "\x00\xff garbage \x7f", 4); break;
      default: bytes = testing::flip_bits(testing::truncate_bytes(bytes, rng, 0.3), rng, 2); break;
    }
    try {
      const predict::RuleTable table = predict::RuleTable::deserialize(bytes, cat);
      // Survivors must be fully valid: a damaged byte stream may only parse
      // when the damage was semantically neutral.
      for (const predict::Rule& r : table.rules) {
        EXPECT_GE(r.precursor, 0) << "seed " << seed;
        EXPECT_LT(static_cast<std::size_t>(r.precursor), cat.size()) << "seed " << seed;
        EXPECT_GE(r.target, 0) << "seed " << seed;
        EXPECT_LT(static_cast<std::size_t>(r.target), cat.size()) << "seed " << seed;
        EXPECT_GT(r.window, 0) << "seed " << seed;
        EXPECT_GT(r.precursor_count, 0u) << "seed " << seed;
        EXPECT_LE(r.support, r.precursor_count) << "seed " << seed;
      }
    } catch (const ParseError&) {
      // The designed outcome for damaged bytes.
    }
  }
}

// ---------------------------------------------------------------------------
// Predictor vs the labeled corpus.

TEST(PredictPredictor, ChainCorpusEndToEnd) {
  const ras::Catalog& cat = ras::default_catalog();
  const ras::RasLog log = testing::chain_ras_log(cat);
  const predict::RuleTable table = testing::chain_expected_rules(cat);
  const testing::ChainPredictorTruth truth;

  obs::Collector obs;
  predict::Predictor predictor(table, log.machine(), &obs);
  for (const ras::RasEvent& ev : log.events()) predictor.on_record(ev);

  EXPECT_EQ(predictor.issued(), truth.issued);
  EXPECT_EQ(predictor.hits(), truth.hits);
  EXPECT_EQ(predictor.suppressed(), truth.suppressed);
  std::size_t at_mp3 = 0;
  for (const predict::Prediction& p : predictor.predictions()) {
    if (p.midplane == 3) ++at_mp3;
    EXPECT_EQ(p.expires, p.issued + kUsecPerHour);
  }
  EXPECT_EQ(at_mp3, truth.midplane_alarms);

  // Offline replay is the same state machine by construction.
  EXPECT_EQ(predict::replay(table, log), predictor.predictions());

  // The obs counters tell the same story.
  const obs::Snapshot snap = obs.snapshot();
  EXPECT_EQ(snap.counter_value("predict.issued"), truth.issued);
  EXPECT_EQ(snap.counter_value("predict.hits"), truth.hits);
}

TEST(PredictPredictor, RefiringInsideWindowSuppressesUntilExpiry) {
  const ras::Catalog& cat = ras::default_catalog();
  const testing::ChainCodes codes = testing::chain_codes(cat);
  predict::RuleTable table;
  table.rules.push_back({codes.a, codes.b, predict::RuleScope::Midplane, kUsecPerHour,
                         /*support=*/3, /*precursor_count=*/3});

  const TimePoint base = TimePoint::from_calendar(2009, 1, 5);
  const auto precursor_at = [&](TimePoint t) {
    ras::RasEvent e;
    e.event_time = t;
    e.location = testing::bgp_midplane(3);
    e.errcode = codes.a;
    e.severity = ras::Severity::Fatal;
    return e;
  };
  predict::Predictor predictor(table, machine::bgp_model());
  predictor.on_record(precursor_at(base));
  predictor.on_record(precursor_at(base + 5 * kUsecPerMin));  // inside window
  EXPECT_EQ(predictor.issued(), 1u);
  EXPECT_EQ(predictor.suppressed(), 1u);
  predictor.on_record(precursor_at(base + 2 * kUsecPerHour));  // expired
  EXPECT_EQ(predictor.issued(), 2u);
}

TEST(PredictPredictor, RackPrecursorFansOutToItsMidplanes) {
  const ras::Catalog& cat = ras::default_catalog();
  const testing::ChainCodes codes = testing::chain_codes(cat);
  predict::RuleTable table;
  table.rules.push_back({codes.a, codes.b, predict::RuleScope::Midplane, kUsecPerHour,
                         /*support=*/3, /*precursor_count=*/3});
  const machine::MachineModel& machine = machine::bgp_model();
  ras::RasEvent e;
  e.event_time = TimePoint::from_calendar(2009, 1, 5);
  e.location = testing::bgp_rack(2);
  e.errcode = codes.a;
  e.severity = ras::Severity::Fatal;
  predict::Predictor predictor(table, machine);
  predictor.on_record(e);
  const machine::MidplaneRange rack = machine.codec().rack_midplanes(2);
  ASSERT_EQ(predictor.predictions().size(), static_cast<std::size_t>(rack.size()));
  for (int m = 0; m < rack.size(); ++m) {
    EXPECT_EQ(predictor.predictions()[static_cast<std::size_t>(m)].midplane, rack.first + m);
  }
}

// ---------------------------------------------------------------------------
// Online/offline differential: the streaming session's predictions must be
// byte-identical to offline replay for any chunking and source interleaving
// (the test_session.cpp parity pattern, applied to the prediction tap).

std::string ras_bytes(const ras::RasLog& log) {
  std::stringstream buf;
  ras::write_binary(buf, log);
  return buf.str();
}

std::string job_bytes(const joblog::JobLog& log) {
  std::stringstream buf;
  joblog::write_binary(buf, log);
  return buf.str();
}

stream::SessionResult session_run(const predict::RuleTable& rules,
                                  const std::string& ras_image,
                                  const std::string& job_image, std::uint64_t seed) {
  stream::SessionConfig cfg;
  cfg.rules = &rules;
  stream::Session session("p" + std::to_string(seed), cfg, Context{});
  Rng rng(seed);
  std::string_view feeds[2] = {ras_image, job_image};
  while (!feeds[0].empty() || !feeds[1].empty()) {
    const std::size_t pick =
        feeds[0].empty() ? 1 : (feeds[1].empty() ? 0 : rng.uniform_index(2));
    std::string_view& rest = feeds[pick];
    const std::size_t n = std::min<std::size_t>(1 + rng.uniform_index(4096), rest.size());
    const auto src = pick == 0 ? stream::Source::Ras : stream::Source::Jobs;
    EXPECT_EQ(session.feed(src, rest.substr(0, n)), stream::Admission::Accepted)
        << "seed " << seed;
    rest.remove_prefix(n);
    if (rng.uniform_index(4) == 0) session.pump();
  }
  return session.finalize();
}

TEST(PredictSessionParity, OnlinePredictionsMatchOfflineReplay) {
  // A real injector log, dense enough that rules fire constantly.
  synth::ScenarioConfig scenario =
      synth::pack_scenario(machine::bgp_model(), "correlated_cascade", 7, 3);
  const synth::SynthResult synth = synth::generate(scenario);
  const core::CoAnalysisResult analysis = core::run_coanalysis(synth.ras, synth.jobs);
  const predict::RuleTable table = predict::mine_rules(analysis, synth.jobs);
  ASSERT_FALSE(table.empty());

  const std::vector<predict::Prediction> offline = predict::replay(table, synth.ras);
  ASSERT_FALSE(offline.empty());

  const std::string ras_image = ras_bytes(synth.ras);
  const std::string job_image = job_bytes(synth.jobs);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    stream::SessionResult got;
    ASSERT_NO_FATAL_FAILURE(got = session_run(table, ras_image, job_image, seed));
    EXPECT_EQ(got.predictions, offline) << "seed " << seed;
  }
}

TEST(PredictSessionParity, SessionWithoutRulesPredictsNothing) {
  const ras::RasLog log = testing::chain_ras_log();
  stream::Session session("none", {}, Context{});
  ASSERT_EQ(session.feed(stream::Source::Ras, ras_bytes(log)),
            stream::Admission::Accepted);
  ASSERT_EQ(session.feed(stream::Source::Jobs, job_bytes([] {
              joblog::JobLog jobs;
              joblog::JobRecord j;
              j.job_id = 1;
              j.exec_id = jobs.intern_exec("/bin/app");
              j.user_id = jobs.intern_user("user");
              j.project_id = jobs.intern_project("proj");
              j.queue_time = TimePoint::from_calendar(2009, 1, 5);
              j.start_time = j.queue_time + kUsecPerMin;
              j.end_time = j.start_time + kUsecPerHour;
              j.partition = testing::bgp_part(0, 2);
              jobs.append(j);
              jobs.finalize();
              return jobs;
            }())),
            stream::Admission::Accepted);
  const stream::SessionResult result = session.finalize();
  EXPECT_TRUE(result.predictions.empty());
}

// ---------------------------------------------------------------------------
// Determinism: mined rules and evaluation metrics are exact-equal whatever
// the worker pool or front-end engine (the test_characterization.cpp
// contract, extended to the prediction stages).

TEST(PredictDeterminism, MinerExactAcrossThreadPools) {
  const ras::Catalog& cat = ras::default_catalog();
  const core::CharColumns cols = testing::chain_columns(cat);
  const core::IdentificationResult id = testing::chain_identification(cat);
  const predict::MinerConfig config = testing::chain_miner_config();
  const predict::RuleTable serial = predict::mine_rules(cols, id, cat, config, nullptr);
  for (const std::size_t threads : {2u, 8u}) {
    par::ThreadPool pool(threads);
    EXPECT_EQ(predict::mine_rules(cols, id, cat, config, &pool), serial)
        << threads << " threads";
  }
}

TEST(PredictDeterminism, MinerExactAcrossEnginesAndPools) {
  synth::ScenarioConfig scenario =
      synth::pack_scenario(machine::bgp_model(), "correlated_cascade", 11, 3);
  const synth::SynthResult synth = synth::generate(scenario);

  // The frozen batch front end (frontend_oracle.hpp) against the sharded
  // streaming one on a pool.
  const predict::RuleTable batch =
      predict::mine_rules(oracle::run_coanalysis(synth.ras, synth.jobs), synth.jobs);
  ASSERT_FALSE(batch.empty());

  core::CoAnalysisConfig stream_cfg;
  stream_cfg.execution.shards = 3;
  par::ThreadPool pool(4);
  Context ctx;
  ctx.with_pool(&pool);
  const predict::RuleTable streamed = predict::mine_rules(
      core::run_coanalysis(synth.ras, synth.jobs, stream_cfg, ctx), synth.jobs, {}, ctx);
  EXPECT_EQ(streamed, batch);
}

TEST(PredictDeterminism, PolicyComparisonExactAcrossThreadPools) {
  const synth::ScenarioConfig scenario = predict::eval_scenario(3, 7);
  const predict::PolicyComparison serial = predict::compare_policies(scenario);
  for (const std::size_t threads : {2u, 8u}) {
    par::ThreadPool pool(threads);
    Context ctx;
    ctx.with_pool(&pool);
    const predict::PolicyComparison got = predict::compare_policies(scenario, {}, ctx);
    EXPECT_EQ(got.rules, serial.rules) << threads << " threads";
    EXPECT_EQ(got.eval, serial.eval) << threads << " threads";
    EXPECT_EQ(got.baseline_lost_node_hours, serial.baseline_lost_node_hours);
    EXPECT_EQ(got.advised_lost_node_hours, serial.advised_lost_node_hours);
    EXPECT_EQ(got.baseline_interruptions, serial.baseline_interruptions);
    EXPECT_EQ(got.advised_interruptions, serial.advised_interruptions);
  }
}

// ---------------------------------------------------------------------------
// The evaluation floors on the seeded scenario — the same invariants the CI
// prediction stage gates through example_predict_eval, pinned here so a
// plain ctest run cannot miss a regression.

TEST(PredictEvaluation, SeededScenarioClearsFloors) {
  const predict::PolicyComparison cmp =
      predict::compare_policies(predict::eval_scenario(42, 21));
  EXPECT_GE(cmp.eval.precision(), 0.7);
  EXPECT_GE(cmp.eval.recall(), 0.5);
  EXPECT_GT(cmp.eval.mean_lead_minutes, 0.0);
  EXPECT_GT(cmp.eval.events_total, 100u);  // the scenario is dense enough to mean something
}

// The advised run exercises the advisor placement path end to end; exact
// values (not floors) so a changed scheduler draw order cannot hide.
TEST(PredictEvaluation, AdvisedRunPinned) {
  const predict::PolicyComparison cmp =
      predict::compare_policies(predict::eval_scenario(3, 7));
  EXPECT_EQ(cmp.baseline_interruptions, 34u);
  EXPECT_EQ(cmp.advised_interruptions, 53u);
  EXPECT_EQ(cmp.baseline_lost_node_hours, 15229.62802062222);
  EXPECT_EQ(cmp.advised_lost_node_hours, 33683.458557013328);
}

TEST(PredictEvaluation, FaultAwarePlacementSavesNodeHours) {
  const predict::PolicyComparison cmp =
      predict::compare_policies(predict::eval_scenario(42, 21));
  EXPECT_GT(cmp.saved_node_hours(), 0.0);
  // The advisor's real lever: keeping jobs off predicted-bad midplanes
  // prevents the persistent-fault re-hit chain, cutting system
  // interruptions by well over half on the seeded scenario.
  EXPECT_LT(cmp.advised_interruptions, cmp.baseline_interruptions / 2);
}

}  // namespace
}  // namespace coral
