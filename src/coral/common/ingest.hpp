#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace coral::obs {
class Collector;
}

namespace coral {

/// How a log reader reacts to malformed input.
///
/// Strict is the historical behaviour: the first malformed byte anywhere in
/// the input throws ParseError and aborts the whole load. Lenient mode is for
/// logs as they actually arrive off a production machine — truncated,
/// bit-flipped, cut mid-rotation: malformed records are skipped and counted
/// (per reason, with byte offsets and samples in an IngestReport) and the
/// reader resynchronizes at the next row boundary (CSV) or the next framed
/// block (binary).
enum class ParseMode {
  Strict,   ///< throw ParseError on the first malformed record
  Lenient,  ///< skip-and-count malformed records, resynchronize, keep going
};

/// Why a record was rejected during ingest. Stable identifiers: counters are
/// keyed by these across CSV and binary readers of both logs.
enum class IngestReason : std::uint8_t {
  CsvStructure,    ///< damaged row framing: unbalanced quote, stray bytes
  RowWidth,        ///< wrong number of fields for the schema
  BadTimestamp,    ///< unparseable or impossible EVENT_TIME / *_TIME field
  BadLocation,     ///< unparseable LOCATION / partition name
  BadNumber,       ///< unparseable integer or floating-point field
  UnknownErrcode,  ///< ERRCODE not present in the target catalog
  BadSeverity,     ///< unknown SEVERITY name
  BadRecord,       ///< semantically impossible record (e.g. end < start)
  BinaryFrame,     ///< binary block dropped: bad magic, CRC mismatch, truncation
};
inline constexpr std::size_t kIngestReasonCount = 9;

std::string_view to_string(IngestReason reason);

/// One retained example of a malformed record (the first few per report).
struct IngestSample {
  IngestReason reason = IngestReason::CsvStructure;
  std::uint64_t byte_offset = 0;  ///< offset of the record in the input stream
  std::string detail;             ///< parser message explaining the rejection
  std::string snippet;            ///< leading bytes of the offending record
};

/// Ingest-health ledger for one reader pass: how many records survived, how
/// many were rejected per reason, and the first few offenders with byte
/// offsets. Strict-mode reads fill it too (all-ok or throw), so callers can
/// use one code path for accounting in either mode.
class IngestReport {
 public:
  /// Retained malformed-record samples per report (first N in input order).
  static constexpr std::size_t kMaxSamples = 8;

  void add_ok(std::uint64_t n = 1) { records_ok_ += n; }
  void add_malformed(IngestReason reason, std::uint64_t byte_offset,
                     std::string_view snippet, std::string detail);
  /// Bulk counter for records lost inside a dropped binary block, where the
  /// individual records cannot be sampled.
  void add_malformed_bulk(IngestReason reason, std::uint64_t n);

  std::uint64_t records_ok() const { return records_ok_; }
  std::uint64_t malformed(IngestReason reason) const;
  std::uint64_t total_malformed() const;
  std::uint64_t records_seen() const { return records_ok_ + total_malformed(); }
  bool clean() const { return total_malformed() == 0; }

  const std::vector<IngestSample>& samples() const { return samples_; }

  /// Fold another report into this one (sample list keeps the first
  /// kMaxSamples across both, this report's first).
  void merge(const IngestReport& other);

  /// Copy only the retained samples from `other`, leaving every counter
  /// untouched. Used by the binary readers, which re-express frame-level
  /// damage episodes as an exact bulk record count but still want the
  /// per-episode offsets and details as diagnostics.
  void adopt_samples(const IngestReport& other);

  /// Human-readable digest, e.g.
  /// "1234 ok, 3 malformed (row_width: 2, bad_timestamp: 1)".
  std::string summary() const;

  /// Publish the malformed-record counters to a collector (no-op on
  /// nullptr): one "<stage>.malformed.<reason>" counter per nonzero reason,
  /// advanced by its count. The reader itself records the "<stage>" span
  /// (records seen -> records kept), so ingest health lands alongside the
  /// engine stage spans.
  void report_malformed(obs::Collector* obs, const std::string& stage) const;

 private:
  std::uint64_t counts_[kIngestReasonCount] = {};
  std::uint64_t records_ok_ = 0;
  std::vector<IngestSample> samples_;
};

}  // namespace coral
