#include "coral/common/storev3.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>

#include "coral/common/error.hpp"
#include "coral/common/lz.hpp"

namespace coral::bin {

namespace {

template <typename T>
void append_raw(std::string& out, T v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof buf);
}

void append_string16(std::string& out, const std::string& s) {
  append_raw(out, static_cast<std::uint16_t>(s.size()));
  out.append(s);
}

}  // namespace

void append_store_meta(std::string& out, const StoreMeta& meta) {
  append_string16(out, meta.machine);
  append_string16(out, meta.schema);
  append_raw(out, meta.records_per_block);
  append_raw(out, meta.flags);
}

StoreMeta parse_store_meta(PayloadCursor& cur) {
  StoreMeta meta;
  meta.machine = cur.get_string(cur.get<std::uint16_t>());
  meta.schema = cur.get_string(cur.get<std::uint16_t>());
  meta.records_per_block = cur.get<std::uint32_t>();
  meta.flags = cur.get<std::uint8_t>();
  return meta;
}

StoreMeta parse_store_meta(PayloadCursor& cur, std::string_view machine, ParseMode mode) {
  StoreMeta meta = parse_store_meta(cur);
  if (meta.machine != machine && mode == ParseMode::Strict) {
    throw ParseError(std::string(cur.what()) + " written for machine '" + meta.machine +
                     "' but read with model '" + std::string(machine) + "'");
  }
  return meta;
}

void append_segment_footer(std::string& out, const std::vector<SegmentEntry>& entries) {
  append_raw(out, static_cast<std::uint32_t>(entries.size()));
  for (const SegmentEntry& e : entries) {
    append_raw(out, e.offset);
    append_raw(out, e.count);
    append_zone_map(out, e.zone);
  }
}

void parse_segment_footer(PayloadCursor& cur, std::vector<SegmentEntry>& out) {
  const auto n = cur.get<std::uint32_t>();
  // A footer entry is 44 bytes; a count its own payload cannot hold is
  // corruption, not a directory (a flipped count byte must not allocate
  // gigabytes).
  if (std::uint64_t{n} * kSegmentEntryBytes > cur.remaining()) {
    throw ParseError("implausible segment footer entry count");
  }
  // Grow geometrically: an exact reserve here would reallocate the whole
  // directory once per footer (a multi-segment file appends hundreds of
  // footers), turning the directory build quadratic.
  if (out.capacity() < out.size() + n) {
    out.reserve(std::max<std::size_t>(out.size() + n, out.capacity() * 2));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    SegmentEntry e;
    e.offset = cur.get<std::uint64_t>();
    e.count = cur.get<std::uint32_t>();
    const std::string_view zb = cur.take(kZoneMapBytes);
    std::size_t pos = 0;
    read_zone_map(zb, pos, e.zone);
    out.push_back(e);
  }
}

void FooterLedger::list(const std::vector<SegmentEntry>& entries) {
  for (const SegmentEntry& e : entries) listed_.emplace_back(e.offset, e.count);
}

std::uint64_t FooterLedger::undelivered_records() const {
  std::vector<std::uint64_t> delivered = delivered_;
  std::sort(delivered.begin(), delivered.end());
  std::uint64_t lost = 0;
  for (const auto& [offset, count] : listed_) {
    if (!std::binary_search(delivered.begin(), delivered.end(), offset)) lost += count;
  }
  return lost;
}

SegmentWriter::SegmentWriter(std::ostream& out, char footer_tag, std::uint64_t offset,
                             std::size_t blocks_per_segment)
    : out_(out),
      footer_tag_(footer_tag),
      offset_(offset),
      blocks_per_segment_(std::max<std::size_t>(1, blocks_per_segment)) {
  segment_.reserve(blocks_per_segment_);
}

void SegmentWriter::write_block(std::string_view framed) {
  out_.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  SegmentEntry entry;
  entry.offset = offset_;
  std::memcpy(&entry.count, framed.data() + kBlockHeaderBytes + 1, sizeof entry.count);
  std::size_t pos = 0;
  read_zone_map(framed.substr(kBlockHeaderBytes + 1 + sizeof entry.count), pos, entry.zone);
  segment_.push_back(entry);
  offset_ += framed.size();
  if (segment_.size() >= blocks_per_segment_) finish();
}

void SegmentWriter::finish() {
  if (segment_.empty()) return;
  std::string footer;
  footer.push_back(footer_tag_);
  append_segment_footer(footer, segment_);
  std::string framed;
  append_frame(framed, footer);
  out_.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  offset_ += framed.size();
  segment_.clear();
}

void append_column_body(std::string& out, const std::string& raw, bool compress) {
  const auto raw_size = static_cast<std::uint32_t>(raw.size());
  if (compress) {
    // Compress into place after the header, then back out unless it pays:
    // a block must shrink by at least 1/8 to earn its decompression cost
    // on the read path. Column bodies are already delta/dictionary-packed,
    // so marginal LZ wins (a few percent) buy almost no bytes but slow
    // every future read of the block; those blocks stay raw.
    const std::size_t header_at = out.size();
    out.push_back(static_cast<char>(kCodecLz));
    append_raw(out, raw_size);
    const std::size_t lz_size = lz::compress(raw, out);
    if (lz_size + raw.size() / 8 <= raw.size()) return;
    out.resize(header_at);
  }
  out.push_back(static_cast<char>(kCodecRaw));
  append_raw(out, raw_size);
  out.append(raw);
}

bool read_column_block(PayloadCursor& cur, const ZoneFilter* filter, std::string& scratch,
                       std::uint64_t& attempted, BlockCounters& blocks, ColumnBlock& out) {
  out.offset = cur.offset();
  out.count = cur.get<std::uint32_t>();
  ZoneMap zm;
  {
    const std::string_view zb = cur.take(kZoneMapBytes);
    std::size_t pos = 0;
    read_zone_map(zb, pos, zm);
  }
  ++blocks.total;
  if (filter != nullptr && !filter->may_match(zm)) {
    attempted += out.count;
    ++blocks.skipped;
    return false;
  }
  const auto at = [&] {
    return std::string(" in ") + cur.what() + " at byte offset " + std::to_string(out.offset);
  };
  const auto codec = cur.get<std::uint8_t>();
  const auto raw_size = cur.get<std::uint32_t>();
  if (raw_size > kMaxBlockPayload) throw ParseError("implausible column block size" + at());
  if (codec == kCodecRaw) {
    if (cur.remaining() != raw_size) throw ParseError("column block size mismatch" + at());
    out.body = cur.take(raw_size);
  } else if (codec == kCodecLz) {
    scratch.resize(raw_size);
    const std::string_view comp = cur.take(cur.remaining());
    if (!lz::decompress(comp, scratch.data(), raw_size)) {
      throw ParseError("corrupt compressed block" + at());
    }
    out.body = scratch;
  } else {
    throw ParseError("unknown codec" + at());
  }
  return true;
}

}  // namespace coral::bin
