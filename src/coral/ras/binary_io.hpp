#pragma once

#include <iosfwd>
#include <string>

#include "coral/common/ingest.hpp"
#include "coral/common/zonemap.hpp"
#include "coral/ras/log.hpp"

namespace coral::par {
class ThreadPool;
}

namespace coral::ras {

/// Compact binary serialization of a RasLog (formats v2 and v3, both
/// block-framed over the CBLK layer in coral/common/binary_frame.hpp).
///
/// CSV round-trips of the 2M-record Intrepid log cost seconds and 300+ MB;
/// the binary formats store records in tens of MB and load in tens of
/// milliseconds.
///
/// v2 layout: a raw 8-byte file header (magic "CRAS" | u32 version = 2)
/// followed by CRC32-framed blocks. Block payloads carry a one-byte tag:
///
///   'D' dictionary: u32 size | entries (u16 length + bytes, index =
///       ErrcodeId used in records) | u64 total record count.
///       Written twice so a single damaged block cannot orphan the records.
///   'R' records: u32 count | count x { i64 time_usec, u32 packed_location,
///       u32 dict_index, u32 serial, u8 severity, 3 zero pad bytes },
///       at most 64 records per block to bound the blast radius of a
///       damaged frame.
///
/// v3 layout (version = 3 in the same 8-byte header): a compressed,
/// seekable, self-describing store. Tags, in writer-canonical order
/// 'M' 'M' 'D' 'D' 'L' 'L' then segments of 'C' blocks each closed by one
/// 'S' footer:
///
///   'M' meta x2: machine name | schema name ("ras.columnar.v3") |
///       u32 records per block | u8 flags (see common/storev3.hpp).
///   'D' dictionary x2: byte-identical payload to v2.
///   'L' location dictionary x2: u32 size | size x u32 distinct packed
///       location keys, in first-appearance order. Records reference keys
///       by index, so each key is validated against the machine model once
///       per file instead of once per record — the core of the v3 decode
///       speedup.
///   'C' column block: u32 count | 32-byte zone map (min/max time, folded
///       midplane bitmap, min/max key) | u8 codec (0 raw / 1 in-repo LZ) |
///       u32 raw size | body. The body is the 64-record block transposed
///       into columns: delta+zigzag-varint times, varint location indices,
///       varint dictionary indices, raw little-endian u32 serials (random
///       surrogates gain nothing from varints), raw severity bytes — then
///       byte-compressed. Count and zone map stay uncompressed so predicate
///       pushdown never touches rejected bodies.
///   'S' segment footer: u64 offset | u32 count | zone map per 'C' block of
///       the preceding segment. An appender just adds more 'C'+'S'
///       segments; readers rebuild the whole-file directory from footers.
///
/// Both dictionaries make files self-describing: a log written with one
/// catalog build loads correctly even if catalog ordering changes, and the
/// meta block names the machine model the keys belong to.
struct WriteOptions {
  std::uint32_t version = 3;  ///< 2 or 3
  /// v3: try the in-repo LZ codec per block, keeping whichever of
  /// raw/compressed is smaller.
  bool compress = true;
  /// v3: 'C' blocks per 'S' footer (the append/flush granularity).
  std::size_t blocks_per_segment = 256;
  /// Fan per-block encode + CRC over this pool; bytes are identical to the
  /// serial writer's. Null = serial.
  par::ThreadPool* pool = nullptr;
};

/// Write `log` in v2 format, serially — the layout every fleet peer
/// understands. Equivalent to write_binary(out, log, {.version = 2}).
void write_binary(std::ostream& out, const RasLog& log);
void write_binary(std::ostream& out, const RasLog& log, const WriteOptions& opts);

/// Read-side options; the zero-initialized default is a strict,
/// sequential, unfiltered read against the reference BG/P model.
struct ReadOptions {
  ParseMode mode = ParseMode::Strict;
  IngestReport* report = nullptr;
  obs::Collector* obs = nullptr;
  par::ThreadPool* pool = nullptr;
  const machine::MachineModel* machine = nullptr;  ///< null = bgp_model()
  /// Predicate pushdown: v3 blocks whose zone map cannot match are skipped
  /// without decompression (zero-touch when a segment footer covers them),
  /// and decoded records are exact-filtered, so the result equals a full
  /// read followed by the same record filter. v2 files decode fully and
  /// exact-filter. Skipped blocks still feed the record accounting, so
  /// strict totals and lenient damage counts are query-independent; what a
  /// predicate read does NOT do is CRC-verify blocks it never touches.
  bin::ReadPredicate predicate;
};

/// Load a binary RasLog (v2 or v3, auto-detected per block tag), resolving
/// dictionary names against `catalog`.
///
/// Strict mode throws ParseError (with the byte offset) on any damage.
/// Lenient mode drops damaged blocks, resynchronizes at the next block
/// marker, and skips-and-counts undecodable records into `report`; the
/// BinaryFrame counter ends up holding exactly the number of records lost
/// to frame damage (the dictionary's total record count makes the loss
/// computable even when the records themselves are unreadable) — at most
/// one block of records per damaged frame, in either version. With an
/// `obs` collector, an "ingest.ras_binary" span, per-reason malformed
/// counters, and bytes/blocks_total/blocks_decoded/blocks_skipped counters
/// are recorded.
///
/// The input is buffered whole. Without a `pool`, or for a v2 file, the
/// sequential recovering reader walks its frames through a FrameAssembler;
/// it is the authority on damage for both versions. With a `pool`, a v3
/// file's frames are decoded in place, CRC verification and record
/// decoding fanned out across contiguous block ranges — results (events,
/// error messages, lenient accounting) are identical to the sequential
/// read, and a file with any frame damage falls back to it.
/// Packed locations are validated against the machine model; the returned
/// log is stamped with it.
RasLog read_binary(std::istream& in, const Catalog& catalog, const ReadOptions& opts);
RasLog read_binary(std::istream& in, const Catalog& catalog = default_catalog(),
                   ParseMode mode = ParseMode::Strict, IngestReport* report = nullptr,
                   obs::Collector* obs = nullptr, par::ThreadPool* pool = nullptr,
                   const machine::MachineModel& machine = machine::bgp_model());

/// read_binary over a memory-mapped file: with a pool, a v3 region is
/// decoded in place with zero copies (raw-codec bodies are read straight
/// from the mapped pages, and predicate reads never fault in the pages of
/// footer-covered skipped blocks). Falls back to a buffered stream read
/// when the platform cannot map the file.
RasLog read_binary_file(const std::string& path, const Catalog& catalog = default_catalog(),
                        const ReadOptions& opts = {});

}  // namespace coral::ras
