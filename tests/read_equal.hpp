#pragma once

// Equality pins for two reads of one binary RAS log (an offline read against
// a session fed the same bytes, or a read with options that must not matter):
// the records position by position (a RECID is its position plus one), the
// fatal columns the decoder gathers as it emits, and the ingest reports.

#include <gtest/gtest.h>

#include "coral/common/ingest.hpp"
#include "coral/ras/log.hpp"

namespace coral::testing {

inline void expect_logs_equal(const ras::RasLog& a, const ras::RasLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].event_time, b[i].event_time) << "record " << i;
    EXPECT_EQ(a[i].errcode, b[i].errcode) << "record " << i;
    EXPECT_EQ(a[i].location, b[i].location) << "record " << i;
    EXPECT_EQ(a[i].serial, b[i].serial) << "record " << i;
    EXPECT_EQ(a[i].severity, b[i].severity) << "record " << i;
  }
  const ras::FatalColumns& fa = a.fatal_columns();
  const ras::FatalColumns& fb = b.fatal_columns();
  EXPECT_TRUE(fa.event_time == fb.event_time);
  EXPECT_EQ(fa.errcode, fb.errcode);
  EXPECT_EQ(fa.loc_key, fb.loc_key);
  EXPECT_EQ(fa.log_index, fb.log_index);
}

inline void expect_reports_equal(const IngestReport& a, const IngestReport& b) {
  EXPECT_EQ(a.records_ok(), b.records_ok());
  EXPECT_EQ(a.total_malformed(), b.total_malformed());
  for (std::size_t r = 0; r < kIngestReasonCount; ++r) {
    EXPECT_EQ(a.malformed(static_cast<IngestReason>(r)),
              b.malformed(static_cast<IngestReason>(r)))
        << to_string(static_cast<IngestReason>(r));
  }
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(a.samples()[i].reason, b.samples()[i].reason);
    EXPECT_EQ(a.samples()[i].byte_offset, b.samples()[i].byte_offset);
    EXPECT_EQ(a.samples()[i].detail, b.samples()[i].detail);
  }
}

}  // namespace coral::testing
