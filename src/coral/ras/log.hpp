#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <vector>

#include "coral/common/ingest.hpp"
#include "coral/machine/model.hpp"
#include "coral/ras/event.hpp"

namespace coral::ras {

/// Summary counts for a RAS log (Table I material).
struct RasLogSummary {
  std::size_t total_records = 0;
  std::size_t fatal_records = 0;
  std::size_t fatal_errcode_types = 0;     ///< distinct ERRCODEs seen at FATAL
  std::size_t fatal_component_types = 0;   ///< distinct COMPONENTs seen at FATAL
  TimePoint first_time;
  TimePoint last_time;
  std::map<Severity, std::size_t> by_severity;
  std::map<Component, std::size_t> fatal_by_component;
};

/// Structure-of-arrays view of the FATAL-severity records, materialized once
/// by RasLog::finalize(). The filter stages touch exactly three fields per
/// record — time, errcode and location — so the streaming front end feeds
/// them from three contiguous columns (8+4+4 bytes) instead of chasing
/// whole RasEvents. `log_index[i]` maps column row i back to the owning
/// RasLog's events(); locations are stored as Location::packed() keys
/// (validate and recover with the log's MachineModel::location_from_packed).
struct FatalColumns {
  std::vector<TimePoint> event_time;
  std::vector<ErrcodeId> errcode;
  std::vector<std::uint32_t> loc_key;
  std::vector<std::size_t> log_index;

  std::size_t size() const { return event_time.size(); }
  bool empty() const { return event_time.empty(); }
};

/// An in-memory RAS log: records sorted by EVENT_TIME, a record's RECID being
/// its position plus one (time order, as the CMCS backend assigns them). A
/// log remembers which catalog its
/// ErrcodeIds index into — and which machine its locations were parsed
/// against — so downstream consumers never have to guess.
class RasLog {
 public:
  RasLog() : catalog_(&default_catalog()) {}
  explicit RasLog(std::vector<RasEvent> events,
                  const Catalog& catalog = default_catalog(),
                  const machine::MachineModel& machine = machine::bgp_model());

  /// Everything finalize() would compute, produced by a caller whose emit
  /// loop already had each record in registers (the binary readers): the
  /// fatal-column gather and the verdict of a running time-order check. When
  /// `sorted` holds, the constructor adopts the columns and skips the
  /// finalize walk entirely — the one remaining full pass over a
  /// multi-million-record reload. A caller whose order check failed sets
  /// `sorted = false` and gets the full sort-and-rebuild finalize (the
  /// columns are discarded).
  struct TrustedParts {
    FatalColumns fatal;
    bool sorted = true;
  };
  RasLog(std::vector<RasEvent> events, const Catalog& catalog,
         const machine::MachineModel& machine, TrustedParts parts);

  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const RasEvent& operator[](std::size_t i) const { return events_[i]; }
  const std::vector<RasEvent>& events() const { return events_; }

  /// The catalog this log's ErrcodeIds index into.
  const Catalog& catalog() const { return *catalog_; }

  /// The machine this log's locations belong to (default: reference BG/P).
  const machine::MachineModel& machine() const { return *machine_; }

  auto begin() const { return events_.begin(); }
  auto end() const { return events_.end(); }

  /// Append a record (time-ordered append is cheap; out-of-order appends are
  /// fixed up by finalize()).
  void append(RasEvent ev);

  /// Sort by time (stable) and rebuild the fatal columns. Must be called
  /// after out-of-order appends and before analysis.
  void finalize();

  /// Copy of all FATAL-severity records, time-ordered. A finalized log
  /// gathers them through fatal_columns().log_index instead of re-scanning;
  /// prefer fatal_columns() where no AoS copy is needed.
  std::vector<RasEvent> fatal_events() const;

  /// Columnar (SoA) view of the FATAL records, maintained by finalize().
  /// Row i describes events()[fatal_columns().log_index[i]].
  const FatalColumns& fatal_columns() const;

  /// Index of the first event with time >= t (log must be finalized).
  std::size_t lower_bound(TimePoint t) const;

  /// Events within [begin, end), time-ordered (log must be finalized).
  std::vector<RasEvent> in_range(TimePoint begin, TimePoint end) const;

  RasLogSummary summary() const;

  /// CSV serialization with the Table II column set:
  /// RECID,MSG_ID,COMPONENT,SUBCOMPONENT,ERRCODE,SEVERITY,EVENT_TIME,LOCATION,SERIAL,MESSAGE
  /// where RECID is the record's position plus one.
  void write_csv(std::ostream& out) const;

  /// Load a RAS CSV. Strict mode (the default) throws ParseError on the
  /// first malformed byte. Lenient mode skips-and-counts malformed rows
  /// (per-reason tallies, byte offsets and samples in `report` if given)
  /// and resynchronizes at the next row boundary, so a truncated or
  /// bit-flipped log still yields every intact record. When an `obs`
  /// collector is given an "ingest.ras_csv" span (rows seen -> rows kept)
  /// plus per-reason malformed counters are recorded, alongside whatever
  /// stage spans the analysis engines record into the same collector.
  /// Location strings are validated against `machine`'s grammar; the
  /// returned log is stamped with that model. The RECID column must parse
  /// as an integer but is then discarded: the returned log is time-sorted
  /// and renumbered 1..N.
  static RasLog read_csv(std::istream& in, const Catalog& catalog = default_catalog(),
                         ParseMode mode = ParseMode::Strict,
                         IngestReport* report = nullptr,
                         obs::Collector* obs = nullptr,
                         const machine::MachineModel& machine = machine::bgp_model());

 private:
  const Catalog* catalog_;
  const machine::MachineModel* machine_ = &machine::bgp_model();
  std::vector<RasEvent> events_;
  FatalColumns fatal_;
  bool finalized_ = false;
};

}  // namespace coral::ras
