#pragma once

#include <iosfwd>

#include "coral/common/ingest.hpp"
#include "coral/common/zonemap.hpp"
#include "coral/joblog/log.hpp"

namespace coral::joblog {

/// Compact binary serialization of a JobLog (v2 row-packed, v3 columnar).
///
/// Both versions share the container: a raw 8-byte file header (magic
/// "CJOB" | u32 version) followed by CRC32-framed blocks (see
/// coral/common/binary_frame.hpp). Block payloads carry a one-byte tag:
///
///   'H' header: u64 total record count. Written twice.
///   'X' / 'U' / 'P' string table (exec files / users / projects):
///       u32 count, then u16 length + bytes each. Each written twice so a
///       single damaged block cannot orphan the records.
///   'R' v2 records: u32 count | count x { i64 job_id, i32 exec, i32 user,
///       i32 project, i32 first_midplane, i64 queue, i64 start, i64 end
///       (usec), i32 midplane_count, i32 exit_code }, at most 64 records
///       per block.
///
/// v3 replaces 'R' with the self-describing store layer shared with the
/// RAS log (common/storev3.hpp):
///
///   'M' meta: machine name, schema "job.columnar.v3", records per block,
///       flags. Written twice.
///   'C' columnar records: u32 count | 32-byte zone map | u8 codec |
///       u32 raw size | column body, at most 64 records per block. The
///       zone map's time range covers [min start, max end] of the block's
///       jobs, the midplane bitmap folds every midplane of every job's
///       partition, and the key range carries [min first-midplane,
///       max last-midplane] as plain midplane ids. The body is the block
///       transposed into columns, in order: job_id (delta + zigzag
///       varint), exec / user / project (varint), start (delta + zigzag
///       varint), wait = start - queue (zigzag varint), duration =
///       end - start (zigzag varint), first_midplane (varint),
///       midplane_count (varint), exit_code (zigzag varint). The writer
///       writes every body raw (codec byte 0); readers still decode the LZ
///       bodies (codec 1) of stores written with compression on.
///   'S' segment footer: offsets, counts, and zone maps of the preceding
///       'C' blocks, so an appender can rebuild the block directory and a
///       seeking reader can skip segments without touching them.
///
/// The v2 and v3 tag sets are disjoint, so the one decoder reads both.

/// Write options. The zero-initialized default writes the current format.
struct WriteOptions {
  std::uint32_t version = 3;  ///< 2 or 3
  /// v3: 'C' blocks per 'S' footer (the append/flush granularity).
  std::size_t blocks_per_segment = 256;
};

/// Write `log` in the format `opts.version` names; {.version = 2} writes
/// the v2 layout every fleet peer understands.
void write_binary(std::ostream& out, const JobLog& log, const WriteOptions& opts);

/// Read-side options; the zero-initialized default is a strict, unfiltered
/// read against the reference BG/P model.
struct ReadOptions {
  ParseMode mode = ParseMode::Strict;
  IngestReport* report = nullptr;
  obs::Collector* obs = nullptr;
  const machine::MachineModel* machine = nullptr;  ///< null = bgp_model()
  /// Predicate pushdown: v3 blocks whose zone map cannot match are skipped
  /// without decompression, and decoded jobs are exact-filtered (the job's
  /// lifetime overlaps the time range AND its partition touches a listed
  /// midplane), so the result equals a full read followed by the same
  /// filter. v2 files decode fully and exact-filter. Skipped blocks still
  /// feed the record accounting, so strict totals and lenient damage
  /// counts are query-independent.
  bin::ReadPredicate predicate;
};

/// Load a binary JobLog (v2 or v3, auto-detected per block tag). Strict
/// mode throws ParseError (with the byte offset) on any damage; lenient
/// mode drops damaged blocks, resynchronizes at the next block marker, and
/// skips-and-counts undecodable records into `report` — the BinaryFrame
/// counter ends up holding exactly the number of records lost to frame
/// damage, at most one block of records per damaged frame in either
/// version. With an `obs` collector, an "ingest.job_binary" span, per-reason
/// malformed counters, and blocks_total/blocks_decoded/blocks_skipped
/// pushdown counters are recorded. Partition extents are validated against
/// the machine model; the returned log is stamped with it.
JobLog read_binary(std::istream& in, const ReadOptions& opts = {});

}  // namespace coral::joblog
