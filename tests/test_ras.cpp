#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "coral/common/error.hpp"
#include "coral/common/strings.hpp"
#include "coral/ras/catalog.hpp"
#include "coral/ras/log.hpp"

#include "bgp_fixture.hpp"

namespace coral::ras {
namespace {

TEST(Types, SeverityRoundTrip) {
  for (Severity s : {Severity::Info, Severity::Warning, Severity::Error, Severity::Fatal}) {
    EXPECT_EQ(parse_severity(to_string(s)), s);
  }
  EXPECT_THROW(parse_severity("fatal"), ParseError);
}

TEST(Types, ComponentRoundTrip) {
  for (Component c : {Component::Application, Component::Kernel, Component::Mc,
                      Component::Mmcs, Component::BareMetal, Component::Card,
                      Component::Diags}) {
    EXPECT_EQ(parse_component(to_string(c)), c);
  }
  EXPECT_THROW(parse_component("KERN"), ParseError);
}

TEST(Catalog, HasExactly82FatalErrcodes) {
  const Catalog& c = Catalog::instance();
  EXPECT_EQ(c.fatal_count(), 82);  // §III-B: 82 ERRCODE types at FATAL severity
}

TEST(Catalog, CompositionMatchesPaper) {
  const Catalog& c = Catalog::instance();
  EXPECT_EQ(c.application_error_count(), 8);  // Observation 2
  EXPECT_EQ(c.benign_count(), 2);             // §IV-A

  int persistent = 0, idle = 0, propagating = 0;
  std::set<Component> fatal_components;
  for (ErrcodeId id : c.fatal_ids()) {
    const ErrcodeInfo& info = c.info(id);
    persistent += info.persistent ? 1 : 0;
    idle += info.idle_bias ? 1 : 0;
    propagating += info.propagates ? 1 : 0;
    fatal_components.insert(info.component);
  }
  EXPECT_EQ(persistent, 4);   // §IV-B: four repair-needed system types
  EXPECT_EQ(idle, 49);        // §IV-A: undetermined codes
  EXPECT_EQ(propagating, 2);  // §VI-C: bg_code_script_error + CiodHungProxy
  EXPECT_EQ(fatal_components.size(), 6u);  // six components report FATALs
  EXPECT_EQ(fatal_components.count(Component::Application), 0u);
}

TEST(Catalog, SystemTypesCountIs72) {
  // 23 interrupting system codes + 49 idle-biased = 72 (Observation 2).
  const Catalog& c = Catalog::instance();
  int system_types = 0;
  for (ErrcodeId id : c.fatal_ids()) {
    const ErrcodeInfo& info = c.info(id);
    if (info.nature == FaultNature::SystemFailure && info.impact == JobImpact::Interrupting) {
      ++system_types;
    }
  }
  EXPECT_EQ(system_types, 72);
}

TEST(Catalog, WellKnownCodesExist) {
  const Catalog& c = Catalog::instance();
  for (const char* name :
       {codes::kBulkPowerFatal, codes::kTorusFatalSum, codes::kRasStormFatal,
        codes::kCiodHungProxy, codes::kScriptError, codes::kDdrController, codes::kFsConfig,
        codes::kLinkCardError, "DetectedClockCardErrors"}) {
    EXPECT_TRUE(c.find(name).has_value()) << name;
  }
  EXPECT_FALSE(c.find("no_such_code").has_value());

  const ErrcodeInfo& bulk = c.info(*c.find(codes::kBulkPowerFatal));
  EXPECT_EQ(bulk.impact, JobImpact::Benign);
  const ErrcodeInfo& storm = c.info(*c.find(codes::kRasStormFatal));
  EXPECT_TRUE(storm.persistent);
  EXPECT_EQ(storm.nature, FaultNature::SystemFailure);
  const ErrcodeInfo& proxy = c.info(*c.find(codes::kCiodHungProxy));
  EXPECT_EQ(proxy.nature, FaultNature::ApplicationError);
  EXPECT_TRUE(proxy.propagates);
}

TEST(Catalog, NamesAndMsgIdsAreUnique) {
  const Catalog& c = Catalog::instance();
  std::set<std::string> names, msg_ids;
  for (const auto& e : c.all()) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate errcode " << e.name;
    EXPECT_TRUE(msg_ids.insert(e.msg_id).second) << "duplicate msg_id " << e.msg_id;
    EXPECT_GT(e.weight, 0.0) << e.name;
    EXPECT_FALSE(e.message.empty()) << e.name;
  }
}

RasEvent make_event(const char* code, const char* when, const char* where) {
  RasEvent ev;
  ev.errcode = *Catalog::instance().find(code);
  ev.severity = Catalog::instance().info(ev.errcode).severity;
  ev.event_time = TimePoint::parse_ras(when);
  ev.location = testing::bgp_loc(where);
  ev.serial = 12345;
  return ev;
}

TEST(RasLog, FinalizeSortsAndAssignsRecids) {
  RasLog log;
  log.append(make_event(codes::kRasStormFatal, "2009-01-06-00.00.00", "R01-M0-N00-J04"));
  log.append(make_event(codes::kBulkPowerFatal, "2009-01-05-00.00.00", "R01"));
  log.finalize();
  // RECID is the position plus one: the earlier record comes first.
  EXPECT_LE(log[0].event_time, log[1].event_time);
  EXPECT_EQ(log[0].info(log.catalog()).name, codes::kBulkPowerFatal);
  EXPECT_EQ(log[1].info(log.catalog()).name, codes::kRasStormFatal);
  EXPECT_EQ(log[1].location, testing::bgp_loc("R01-M0-N00-J04"));
}

TEST(RasLog, SummaryCountsSeverities) {
  RasLog log;
  log.append(make_event(codes::kRasStormFatal, "2009-01-05-01.00.00", "R01-M0-N00-J04"));
  log.append(make_event(codes::kRasStormFatal, "2009-01-05-02.00.00", "R01-M0-N00-J05"));
  log.append(make_event("ecc_correctable", "2009-01-05-03.00.00", "R02-M1-N01-J06"));
  log.finalize();
  const RasLogSummary s = log.summary();
  EXPECT_EQ(s.total_records, 3u);
  EXPECT_EQ(s.fatal_records, 2u);
  EXPECT_EQ(s.fatal_errcode_types, 1u);
  EXPECT_EQ(s.by_severity.at(Severity::Warning), 1u);
  EXPECT_EQ(s.fatal_by_component.at(Component::Kernel), 2u);
}

TEST(RasLog, FatalIndicesMatchFatalEvents) {
  // fatal_columns().log_index indexes the FATAL records in the full log.
  RasLog log;
  log.append(make_event(codes::kRasStormFatal, "2009-01-05-01.00.00", "R01-M0-N00-J04"));
  log.append(make_event("ecc_correctable", "2009-01-05-02.00.00", "R02-M1-N01-J06"));
  log.append(make_event(codes::kBulkPowerFatal, "2009-01-05-03.00.00", "R01"));
  log.append(make_event("ecc_correctable", "2009-01-05-04.00.00", "R02-M1-N01-J06"));
  log.finalize();

  const std::vector<std::size_t>& idx = log.fatal_columns().log_index;
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 2u);

  // Gathering through the index reproduces the scan-based copy exactly.
  const std::vector<RasEvent> scanned = log.fatal_events();
  ASSERT_EQ(scanned.size(), idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(log[idx[i]].event_time, scanned[i].event_time);
    EXPECT_EQ(log[idx[i]].errcode, scanned[i].errcode);
    EXPECT_EQ(log[idx[i]].location, scanned[i].location);
    EXPECT_EQ(log[idx[i]].serial, scanned[i].serial);
  }

  // The index tracks re-finalization after further appends.
  log.append(make_event(codes::kRasStormFatal, "2009-01-05-00.30.00", "R01-M0-N00-J04"));
  log.finalize();
  EXPECT_EQ(log.fatal_columns().log_index.size(), 3u);
  EXPECT_EQ(log.fatal_columns().log_index[0], 0u);  // new earliest fatal sorted to front
}

TEST(RasLog, CsvRoundTrip) {
  RasLog log;
  log.append(make_event(codes::kRasStormFatal, "2009-01-05-01.02.03.000004", "R01-M0-N00-J04"));
  log.append(make_event("ecc_correctable", "2009-01-05-02.00.00", "R02-M1-N01-J06"));
  log.finalize();

  std::ostringstream out;
  log.write_csv(out);
  std::istringstream in(out.str());
  const RasLog parsed = RasLog::read_csv(in);

  ASSERT_EQ(parsed.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(parsed[i].errcode, log[i].errcode);
    EXPECT_EQ(parsed[i].event_time, log[i].event_time);
    EXPECT_EQ(parsed[i].location, log[i].location);
    EXPECT_EQ(parsed[i].severity, log[i].severity);
    EXPECT_EQ(parsed[i].serial, log[i].serial);
  }
}

/// The data rows of a RAS CSV, and the RECID (first field) of each.
std::vector<std::string> csv_rows(const std::string& csv) {
  std::vector<std::string> rows;
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (!line.empty()) rows.push_back(line);
  }
  return rows;
}

std::string recid_of(const std::string& row) { return row.substr(0, row.find(',')); }

TEST(RasLog, CsvRecidIsPositionPlusOne) {
  RasLog log;
  log.append(make_event(codes::kRasStormFatal, "2009-01-05-03.00.00", "R01-M0-N00-J04"));
  log.append(make_event("ecc_correctable", "2009-01-05-01.00.00", "R02-M1-N01-J06"));
  log.append(make_event(codes::kBulkPowerFatal, "2009-01-05-02.00.00", "R01"));
  log.finalize();
  std::ostringstream out;
  log.write_csv(out);
  const std::vector<std::string> rows = csv_rows(out.str());
  ASSERT_EQ(rows.size(), 3u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(recid_of(rows[i]), std::to_string(i + 1));
  }

  // Gapped, out-of-order RECIDs on rows out of time order: the RECIDs are
  // parsed and dropped, the records come back time-sorted, and writing
  // them numbers the rows 1..n again.
  const std::string header = out.str().substr(0, out.str().find('\n') + 1);
  const auto renumbered = [&](std::size_t i, const char* recid) {
    return recid + rows[i].substr(rows[i].find(',')) + "\n";
  };
  std::istringstream gapped(header + renumbered(2, "907") + renumbered(0, "12") +
                            renumbered(1, "5000"));
  const RasLog parsed = RasLog::read_csv(gapped);
  ASSERT_EQ(parsed.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(parsed[i].event_time, log[i].event_time);
    EXPECT_EQ(parsed[i].errcode, log[i].errcode);
    EXPECT_EQ(parsed[i].location, log[i].location);
  }
  std::ostringstream back;
  parsed.write_csv(back);
  EXPECT_EQ(back.str(), out.str());

  // The RECID column is still validated: strict mode throws on a
  // non-numeric one, lenient mode charges the row to BadNumber.
  std::istringstream strict_bad(header + renumbered(0, "x1") + renumbered(1, "2"));
  EXPECT_THROW(RasLog::read_csv(strict_bad), ParseError);
  std::istringstream lenient_bad(header + renumbered(0, "x1") + renumbered(1, "2"));
  IngestReport rep;
  const RasLog kept =
      RasLog::read_csv(lenient_bad, default_catalog(), ParseMode::Lenient, &rep);
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_EQ(rep.malformed(IngestReason::BadNumber), 1u);
}

TEST(RasLog, CsvRejectsGarbage) {
  std::istringstream empty("");
  EXPECT_THROW(RasLog::read_csv(empty), ParseError);
  std::istringstream badheader("A,B,C\n");
  EXPECT_THROW(RasLog::read_csv(badheader), ParseError);
}

}  // namespace
}  // namespace coral::ras
