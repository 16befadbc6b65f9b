#include "coral/ras/log.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <set>

#include "coral/common/csv.hpp"
#include "coral/common/error.hpp"
#include "coral/common/strings.hpp"
#include "coral/obs/obs.hpp"

namespace coral::ras {

RasLog::RasLog(std::vector<RasEvent> events, const Catalog& catalog,
               const machine::MachineModel& machine)
    : catalog_(&catalog), machine_(&machine), events_(std::move(events)) {
  finalize();
}

RasLog::RasLog(std::vector<RasEvent> events, const Catalog& catalog,
               const machine::MachineModel& machine, TrustedParts parts)
    : catalog_(&catalog), machine_(&machine), events_(std::move(events)) {
  if (parts.sorted) {
    fatal_ = std::move(parts.fatal);
    finalized_ = true;
    return;
  }
  finalize();
}

void RasLog::append(RasEvent ev) {
  finalized_ = false;
  events_.push_back(ev);
}

void RasLog::finalize() {
  const auto by_time = [](const RasEvent& a, const RasEvent& b) {
    return a.event_time < b.event_time;
  };
  // The order check and the fatal-column gather touch every record, so they
  // share a single walk. Most logs arrive time-ordered, so the first walk
  // almost always completes; an out-of-order log (hand-built via append)
  // detects mid-walk, sorts, and rescans.
  for (int pass = 0; pass < 2; ++pass) {
    fatal_.event_time.clear();
    fatal_.errcode.clear();
    fatal_.loc_key.clear();
    fatal_.log_index.clear();
    bool sorted = true;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const RasEvent& ev = events_[i];
      if (i != 0 && ev.event_time < events_[i - 1].event_time) {
        sorted = false;
        break;
      }
      if (ev.is_fatal()) {
        fatal_.event_time.push_back(ev.event_time);
        fatal_.errcode.push_back(ev.errcode);
        fatal_.loc_key.push_back(ev.location.packed());
        fatal_.log_index.push_back(i);
      }
    }
    if (sorted) break;
    std::stable_sort(events_.begin(), events_.end(), by_time);
  }
  finalized_ = true;
}

const FatalColumns& RasLog::fatal_columns() const {
  CORAL_EXPECTS(finalized_);
  return fatal_;
}

std::vector<RasEvent> RasLog::fatal_events() const {
  std::vector<RasEvent> out;
  if (finalized_) {
    out.reserve(fatal_.log_index.size());
    for (const std::size_t i : fatal_.log_index) out.push_back(events_[i]);
    return out;
  }
  for (const auto& ev : events_) {
    if (ev.is_fatal()) out.push_back(ev);
  }
  return out;
}

std::size_t RasLog::lower_bound(TimePoint t) const {
  CORAL_EXPECTS(finalized_);
  const auto it = std::lower_bound(events_.begin(), events_.end(), t,
                                   [](const RasEvent& ev, TimePoint tp) {
                                     return ev.event_time < tp;
                                   });
  return static_cast<std::size_t>(it - events_.begin());
}

std::vector<RasEvent> RasLog::in_range(TimePoint begin, TimePoint end) const {
  std::vector<RasEvent> out;
  for (std::size_t i = lower_bound(begin); i < events_.size(); ++i) {
    if (events_[i].event_time >= end) break;
    out.push_back(events_[i]);
  }
  return out;
}

RasLogSummary RasLog::summary() const {
  RasLogSummary s;
  s.total_records = events_.size();
  std::set<ErrcodeId> fatal_codes;
  std::set<Component> fatal_components;
  for (const auto& ev : events_) {
    s.by_severity[ev.severity] += 1;
    if (ev.is_fatal()) {
      s.fatal_records += 1;
      fatal_codes.insert(ev.errcode);
      fatal_components.insert(ev.info(*catalog_).component);
      s.fatal_by_component[ev.info(*catalog_).component] += 1;
    }
  }
  s.fatal_errcode_types = fatal_codes.size();
  s.fatal_component_types = fatal_components.size();
  if (!events_.empty()) {
    s.first_time = events_.front().event_time;
    s.last_time = events_.back().event_time;
  }
  return s;
}

void RasLog::write_csv(std::ostream& out) const {
  CsvWriter w(out);
  w.write_row({"RECID", "MSG_ID", "COMPONENT", "SUBCOMPONENT", "ERRCODE", "SEVERITY",
               "EVENT_TIME", "LOCATION", "SERIAL", "MESSAGE"});
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const RasEvent& ev = events_[i];
    const ErrcodeInfo& info = ev.info(*catalog_);
    w.write_row({std::to_string(i + 1), info.msg_id, to_string(info.component),
                 info.subcomponent, info.name, to_string(ev.severity),
                 ev.event_time.to_ras_string(), ev.location.to_string(),
                 std::to_string(ev.serial), info.message});
  }
}

namespace {

std::string row_snippet(const std::vector<std::string>& row) {
  std::string s;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ',';
    s += row[i];
    if (s.size() > 64) break;
  }
  return s;
}

}  // namespace

RasLog RasLog::read_csv(std::istream& in, const Catalog& catalog, ParseMode mode,
                        IngestReport* report, obs::Collector* obs,
                        const machine::MachineModel& machine) {
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  obs::Span span(obs, "ingest.ras_csv");

  CsvReader r(in, ',', mode, &rep);
  std::vector<std::string> row;
  if (!r.read_row(row)) throw ParseError("empty RAS CSV");
  if (row.size() != 10 || row[0] != "RECID") {
    // A damaged header is unrecoverable for column meaning, so even lenient
    // mode refuses to guess a schema.
    throw ParseError("bad RAS CSV header");
  }
  std::vector<RasEvent> events;
  while (r.read_row(row)) {
    if (row.size() == 1 && row[0].empty()) continue;  // trailing newline
    const std::uint64_t offset = r.row_offset();
    if (row.size() != 10) {
      if (mode == ParseMode::Strict) throw ParseError("bad RAS CSV row width");
      rep.add_malformed(IngestReason::RowWidth, offset, row_snippet(row),
                        "expected 10 fields, got " + std::to_string(row.size()));
      continue;
    }
    if (mode == ParseMode::Strict) {
      RasEvent ev;
      parse_int(row[0]);  // RECID: validated, then renumbered by position
      const auto code = catalog.find(row[4]);
      if (!code) throw ParseError("unknown ERRCODE in CSV: '" + row[4] + "'");
      ev.errcode = *code;
      ev.severity = parse_severity(row[5]);
      ev.event_time = TimePoint::parse_ras(row[6]);
      ev.location = machine.parse_location(row[7]);
      ev.serial = static_cast<std::uint32_t>(parse_int(row[8]));
      events.push_back(ev);
      rep.add_ok();
      continue;
    }
    // Lenient: classify the first failing field and move on to the next row.
    RasEvent ev;
    IngestReason reason = IngestReason::BadRecord;
    try {
      reason = IngestReason::BadNumber;
      parse_int(row[0]);
      reason = IngestReason::UnknownErrcode;
      const auto code = catalog.find(row[4]);
      if (!code) throw ParseError("unknown ERRCODE in CSV: '" + row[4] + "'");
      ev.errcode = *code;
      reason = IngestReason::BadSeverity;
      ev.severity = parse_severity(row[5]);
      reason = IngestReason::BadTimestamp;
      ev.event_time = TimePoint::parse_ras(row[6]);
      reason = IngestReason::BadLocation;
      ev.location = machine.parse_location(row[7]);
      reason = IngestReason::BadNumber;
      ev.serial = static_cast<std::uint32_t>(parse_int(row[8]));
    } catch (const Error& e) {
      rep.add_malformed(reason, offset, row_snippet(row), e.what());
      continue;
    }
    events.push_back(ev);
    rep.add_ok();
  }
  span.counts(rep.records_seen(), rep.records_ok());
  rep.report_malformed(obs, "ingest.ras_csv");
  return RasLog(std::move(events), catalog, machine);
}

}  // namespace coral::ras
