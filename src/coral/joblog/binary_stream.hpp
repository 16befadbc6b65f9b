#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coral/common/binary_frame.hpp"
#include "coral/common/ingest.hpp"
#include "coral/common/storev3.hpp"
#include "coral/common/zonemap.hpp"
#include "coral/joblog/log.hpp"

namespace coral::joblog {

/// Format internals of the binary v2/v3 job log (layout contract in
/// binary_io.hpp). Exposed for the same reason as ras/binary_stream.hpp:
/// the one-shot file reader and the incremental wire/session path must
/// decode through the same routines for the fleet parity guarantee to hold.
/// As with RAS, the v3 tags extend the v2 tag set, so one decoder reads
/// both versions and the session/daemon wire path inherits v3 for free.

inline constexpr char kJobMagic[4] = {'C', 'J', 'O', 'B'};
inline constexpr std::uint32_t kJobVersion = 2;
inline constexpr std::uint32_t kJobVersion3 = 3;
inline constexpr char kJobHeaderTag = 'H';
inline constexpr char kJobExecTag = 'X';
inline constexpr char kJobUserTag = 'U';
inline constexpr char kJobProjectTag = 'P';
inline constexpr char kJobRecordTag = 'R';
/// v3 tags (shared payload shapes in common/storev3.hpp).
inline constexpr char kJobMetaTag = 'M';
inline constexpr char kJobColumnTag = 'C';
inline constexpr char kJobSegmentTag = 'S';
inline constexpr std::string_view kJobSchemaV3 = "job.columnar.v3";
inline constexpr std::size_t kJobRecordsPerBlock = 64;

/// The fixed 56-byte on-disk record (golden byte layout pinned in
/// tests/test_binary_io.cpp).
struct PackedJob {
  std::int64_t job_id = 0;
  std::int32_t exec = 0;
  std::int32_t user = 0;
  std::int32_t project = 0;
  std::int32_t first_midplane = 0;
  std::int64_t queue_usec = 0;
  std::int64_t start_usec = 0;
  std::int64_t end_usec = 0;
  std::int32_t midplane_count = 0;
  std::int32_t exit_code = 0;
};
static_assert(sizeof(PackedJob) == 56);

/// Parse one string-table payload body ('X'/'U'/'P', cursor past the tag).
std::vector<std::string> parse_job_table(bin::PayloadCursor& cur);

/// Build one complete v3 'C' payload (tag through raw body) for jobs
/// [base, base + n) of `log` in `scratch` (caller-owned, reused across
/// blocks; grown to the worst case, never shrunk) and return a view of it.
/// The body is the block transposed into varint columns (see binary_io.hpp
/// for the exact layout); the zone map covers [min start, max end] with
/// every partition midplane folded in and the key range carrying
/// [min first-midplane, max last-midplane].
std::string_view encode_job_column_block(std::string& scratch, const JobLog& log,
                                         std::size_t base, std::size_t n);

/// Incremental binary v2/v3 job decoder: feed block payloads as they arrive,
/// finish() runs the lost-record top-up and finalizes the log. Feeding a
/// file's payload sequence reproduces the one-shot reader exactly —
/// read_binary is itself implemented on this class. The v2 and v3 tag sets
/// are disjoint, so no version switch is needed.
class JobStreamDecoder {
 public:
  JobStreamDecoder(ParseMode mode, const machine::MachineModel& machine)
      : machine_(&machine), mode_(mode), log_(machine) {}

  /// Install a pushdown predicate: zone-rejected v3 blocks are skipped
  /// without decoding, and decoded jobs are exact-filtered (lifetime
  /// overlaps the time range, partition touches a listed midplane). Null
  /// (the default) decodes everything. Must outlive the decoder.
  void set_filter(const bin::ZoneFilter* filter) { filter_ = filter; }

  /// Decode one block payload (tag byte + body) whose first byte sat at
  /// absolute offset `payload_offset`. Lenient mode absorbs undecodable
  /// payloads; strict mode throws.
  void on_payload(std::string_view payload, std::uint64_t payload_offset);

  /// Bound the job pre-reservation taken from the header's declared total,
  /// as ras::RasStreamDecoder::set_reserve_cap bounds its own: file readers
  /// set what the input could physically hold, streaming callers keep the
  /// conservative default and let the log grow.
  void set_reserve_cap(std::uint64_t cap) { reserve_cap_ = cap; }

  /// Records successfully decoded so far (live gauge for mid-run snapshots).
  std::uint64_t records_decoded() const { return log_.size(); }
  /// Record-block accounting (total / decoded / zone-skipped), the source
  /// of the ingest.job_binary.blocks_* obs counters.
  const bin::BlockCounters& block_counters() const { return blocks_; }
  /// The 'M' meta block, once one has been seen (v3 streams only).
  const std::optional<bin::StoreMeta>& meta() const { return meta_; }

  /// End of stream: verify counts (strict) or top-up the BinaryFrame ledger
  /// (lenient; from the v3 segment footers when both header copies were
  /// lost), fold per-record accounting into `rep`, adopt the framing layer's
  /// damage samples, and return the finalized log.
  JobLog finish(IngestReport& rep, const IngestReport& frame_damage);

 private:
  void decode_records(bin::PayloadCursor& cur);
  void decode_columns(bin::PayloadCursor& cur);
  /// Intern the surviving string tables; `before_records` adds the strict
  /// check that all three precede the first record block.
  void intern_tables(bool before_records);
  /// Validate and append one decoded job; shared by the v2 and v3 record
  /// paths so rejection reasons and filter semantics match across versions.
  void emit_job(std::int64_t job_id, std::int64_t exec, std::int64_t user,
                std::int64_t project, std::int64_t queue_usec, std::int64_t start_usec,
                std::int64_t end_usec, std::int64_t first_midplane,
                std::int64_t midplane_count, std::int64_t exit_code,
                std::uint64_t rec_offset);

  const machine::MachineModel* machine_;
  ParseMode mode_;
  JobLog log_;
  const bin::ZoneFilter* filter_ = nullptr;
  std::optional<std::uint64_t> total_;
  std::optional<bin::StoreMeta> meta_;
  std::optional<std::vector<std::string>> execs_, users_, projects_;
  bool interned_ = false;
  IngestReport record_rep_;  ///< per-record rejections, folded into finish()'s rep
  std::uint64_t attempted_ = 0;
  std::uint64_t reserve_cap_ = std::uint64_t{1} << 16;
  bin::BlockCounters blocks_;
  bin::FooterLedger footers_;  ///< kept while no header total survived
  std::string scratch_;  ///< decompression buffer, reused across blocks
};

}  // namespace coral::joblog
