#pragma once

// Equality pins for two reads of one binary RAS log — a pooled read against
// the sequential reference: the records position by position (a RECID is its
// position plus one), the fatal columns the readers gather as they emit, and
// the ingest reports.

#include <gtest/gtest.h>

#include <cstdint>

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

/// The one documented difference between a pooled v3 read under a
/// predicate and the sequential read (DESIGN.md, "Parallel zero-copy binary
/// ingest"): the pooled reader takes a footer-covered block that the footer
/// zone map rejects on the footer's word and never reads it. Damage there —
/// a stale CRC, or an in-block zone map that lies and admits the block — so
/// only shows in the sequential report, which charges such a block's
/// records to BinaryFrame (with a damage sample) or, decoded and
/// exact-filtered, to ok. `unread_records` counts the records of every
/// footer-rejected block; each is charged at most once.
inline void expect_reports_equal_but_unread_blocks(const IngestReport& seq,
                                                   const IngestReport& pooled,
                                                   std::uint64_t unread_records) {
  const auto frame = [](const IngestReport& r) {
    return r.malformed(IngestReason::BinaryFrame);
  };
  EXPECT_LE(pooled.records_ok(), seq.records_ok());
  EXPECT_LE(frame(pooled), frame(seq));
  EXPECT_LE(seq.records_ok() - pooled.records_ok() + frame(seq) - frame(pooled),
            unread_records);
  for (std::size_t r = 0; r < kIngestReasonCount; ++r) {
    const auto reason = static_cast<IngestReason>(r);
    if (reason == IngestReason::BinaryFrame) continue;
    EXPECT_EQ(seq.malformed(reason), pooled.malformed(reason)) << to_string(reason);
  }
  // Frame-damage samples are adopted last, so the pooled samples are a
  // prefix of the sequential ones and the rest are BinaryFrame samples.
  ASSERT_LE(pooled.samples().size(), seq.samples().size());
  for (std::size_t i = 0; i < seq.samples().size(); ++i) {
    if (i >= pooled.samples().size()) {
      EXPECT_EQ(seq.samples()[i].reason, IngestReason::BinaryFrame);
      continue;
    }
    EXPECT_EQ(seq.samples()[i].reason, pooled.samples()[i].reason);
    EXPECT_EQ(seq.samples()[i].byte_offset, pooled.samples()[i].byte_offset);
    EXPECT_EQ(seq.samples()[i].detail, pooled.samples()[i].detail);
  }
}

}  // namespace coral::testing
