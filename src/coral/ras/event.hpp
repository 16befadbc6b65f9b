#pragma once

#include <cstdint>

#include "coral/bgp/location.hpp"
#include "coral/common/time.hpp"
#include "coral/ras/catalog.hpp"
#include "coral/ras/types.hpp"

namespace coral::ras {

/// One RAS record (Table II of the paper), stored compactly: identity fields
/// that are functions of the errcode (MSG_ID, COMPONENT, SUBCOMPONENT,
/// MESSAGE) live in the Catalog and are materialized only on serialization.
/// RECID is not stored: it is the record's position in its RasLog plus one,
/// which RasLog::write_csv prints. The 1-byte severity sits in the tail
/// padding of the 6-byte location, so a record is 24 bytes, and the 2.08 M
/// records of the Intrepid-scale log fill 50 MB.
struct RasEvent {
  TimePoint event_time;         ///< EVENT_TIME
  bgp::Location location;       ///< LOCATION
  Severity severity = Severity::Info;  ///< SEVERITY as recorded
  ErrcodeId errcode = 0;        ///< index into Catalog
  std::uint32_t serial = 0;     ///< hardware serial-number surrogate

  /// Materialize the catalog-resident identity fields. Which catalog an
  /// event indexes into is a property of the log it came from, so callers
  /// pass it explicitly (RasLog::catalog(), or Context::catalog()).
  const ErrcodeInfo& info(const Catalog& catalog) const { return catalog.info(errcode); }
  bool is_fatal() const { return severity == Severity::Fatal; }
};
static_assert(sizeof(RasEvent) == 24);

}  // namespace coral::ras
