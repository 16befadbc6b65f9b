#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "coral/common/binary_frame.hpp"
#include "coral/common/zonemap.hpp"

namespace coral::bin {

/// Format machinery shared by the v3 RAS and job log stores (see
/// ras/binary_io.hpp for the full layout contract). Both formats reuse the
/// CBLK framing and add three log-neutral payload shapes on top:
///
///   'M' meta: u16 len + machine name | u16 len + schema name |
///       u32 records per block | u8 flags. Written twice; makes a file
///       self-describing (which machine's codec, which column schema).
///   per-block column header: u32 record count | 32-byte ZoneMap |
///       u8 codec (0 = raw, 1 = in-repo LZ) | u32 raw (uncompressed) size |
///       body. The count and zone map stay uncompressed so predicate
///       pushdown can accept or skip a block without touching the body.
///   'S' segment footer: u32 n | n x { u64 block offset, u32 record count,
///       32-byte ZoneMap }, one entry per column block of the preceding
///       segment. Offsets count from the end of the 8-byte file header,
///       the coordinate every reader already reports. Footers let a reader
///       rebuild the block directory of an append-grown file without
///       decoding any record block, and let predicate reads skip
///       zone-rejected blocks without faulting their pages in at all.

inline constexpr std::uint8_t kCodecRaw = 0;
inline constexpr std::uint8_t kCodecLz = 1;
/// Meta flag: the writer had compression enabled (informational — each
/// block carries its own codec byte, incompressible blocks stay raw).
inline constexpr std::uint8_t kStoreFlagCompressed = 1;

struct StoreMeta {
  std::string machine;
  std::string schema;
  std::uint32_t records_per_block = 0;
  std::uint8_t flags = 0;
};

/// Serialize the meta body (caller prepends the tag byte).
void append_store_meta(std::string& out, const StoreMeta& meta);
/// Parse a meta body (cursor past the tag byte); throws ParseError via the
/// cursor on truncation.
StoreMeta parse_store_meta(PayloadCursor& cur);
/// parse_store_meta for a reader given the machine model named `machine`:
/// strict mode also throws ParseError ("<what> written for machine 'X' but
/// read with model 'Y'") when the store names another machine.
StoreMeta parse_store_meta(PayloadCursor& cur, std::string_view machine, ParseMode mode);

/// One column block as recorded in a segment footer.
struct SegmentEntry {
  std::uint64_t offset = 0;  ///< frame offset, relative to the region start
  std::uint32_t count = 0;   ///< records in the block
  ZoneMap zone;
};
inline constexpr std::size_t kSegmentEntryBytes = 8 + 4 + kZoneMapBytes;

/// Serialize a footer body (caller prepends the tag byte).
void append_segment_footer(std::string& out, const std::vector<SegmentEntry>& entries);
/// Parse a footer body (cursor past the tag byte), appending to `out`.
/// Throws ParseError on truncation or an implausible entry count.
void parse_segment_footer(PayloadCursor& cur, std::vector<SegmentEntry>& out);

/// What the 'S' footers of a v3 stream say about its column blocks, kept by
/// the stream decoders while no declared total (RAS 'D', job 'H') has been
/// seen. The footers list every sealed block with its record count, so when
/// every copy of the declaration is lost they still bound the loss: the
/// records of a listed block that no frame delivered. Blocks whose footer
/// was lost too, the unsealed tail of an appended file and v2 files (no
/// footers) stay unbounded.
class FooterLedger {
 public:
  /// Note the entries of one parsed footer.
  void list(const std::vector<SegmentEntry>& entries);
  /// Note that the block framed at `offset` (the frame's first byte, in
  /// footer coordinates) was delivered and its records accounted for.
  void deliver(std::uint64_t offset) { delivered_.push_back(offset); }
  /// Records of the listed blocks that no delivery covered.
  std::uint64_t undelivered_records() const;

 private:
  std::vector<std::pair<std::uint64_t, std::uint32_t>> listed_;  ///< (offset, count)
  std::vector<std::uint64_t> delivered_;
};

/// The body of a v3 store as both logs write it: framed column blocks, each
/// run of `blocks_per_segment` of them (and the rest, at finish()) closed
/// by one `footer_tag` segment footer. `offset` is where the first block
/// lands, counted from the end of the file header like every other offset
/// the readers report.
class SegmentWriter {
 public:
  SegmentWriter(std::ostream& out, char footer_tag, std::uint64_t offset,
                std::size_t blocks_per_segment);

  /// Write one framed column block and record its footer entry; the count
  /// and zone map sit at fixed offsets in the frame.
  void write_block(std::string_view framed);
  /// Close the open segment, if it holds any block.
  void finish();

 private:
  std::ostream& out_;
  char footer_tag_;
  std::uint64_t offset_;
  std::size_t blocks_per_segment_;
  std::vector<SegmentEntry> segment_;
};

/// Append `codec | raw_size | body` for an already-built raw column body,
/// compressing when asked and the result actually shrinks.
void append_column_body(std::string& out, const std::string& raw, bool compress);

/// Record-block bookkeeping for the pushdown obs counters: every record
/// block seen is `total`; each is then `decoded` or (zone map rejected
/// under a predicate) `skipped`.
struct BlockCounters {
  std::uint64_t total = 0;
  std::uint64_t decoded = 0;
  std::uint64_t skipped = 0;

  void merge(const BlockCounters& o) {
    total += o.total;
    decoded += o.decoded;
    skipped += o.skipped;
  }
};

/// The read side of one column block: what append_column_body and the
/// count and zone map ahead of it wrote.
struct ColumnBlock {
  std::uint64_t offset = 0;  ///< absolute offset of the count field, for errors
  std::uint32_t count = 0;   ///< declared records
  std::string_view body;     ///< raw column body (aliases the payload or scratch)
};

/// Read one column block (cursor past the tag byte) and count it in
/// `blocks.total`. When `filter` rejects its zone map, the block counts as
/// skipped, its declared records are added to `attempted` without touching
/// the body (the CRC vouched for the count, so strict totals and the
/// lenient top-up stay exact under pushdown), and false is returned.
/// Otherwise the codec, raw size and body are read — an LZ body is
/// decompressed into `scratch` — and true is returned; the caller counts
/// the block decoded once its columns parse. Throws ParseError at the count
/// field's offset on an implausible raw size, a raw body of the wrong size,
/// an LZ body that does not decompress, or an unknown codec.
bool read_column_block(PayloadCursor& cur, const ZoneFilter* filter, std::string& scratch,
                       std::uint64_t& attempted, BlockCounters& blocks, ColumnBlock& out);

}  // namespace coral::bin
