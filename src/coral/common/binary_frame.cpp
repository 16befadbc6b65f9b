#include "coral/common/binary_frame.hpp"

#include <algorithm>
#include <cstring>
#include <istream>

#include "coral/common/error.hpp"

namespace coral::bin {

namespace {

// Slicing-by-16 tables: entries[0] is the classic byte-at-a-time table, and
// entries[k][b] is the CRC of byte b followed by k zero bytes, so one round
// folds sixteen input bytes with sixteen independent lookups (twice the
// ILP of slicing-by-8 — the round's lookups have no chain through `c`
// except at the fold, and checksumming is a fixed tax on every read).
struct Crc32Table {
  std::uint32_t entries[16][256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      entries[0][i] = c;
    }
    for (int k = 1; k < 16; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
  }
};

const Crc32Table& crc_table() {
  static const Crc32Table table;
  return table;
}

constexpr std::size_t kHeaderBytes = kBlockHeaderBytes;

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = crc_table().entries;
  std::uint32_t c = 0xFFFFFFFFu;
  // Same little-endian-host assumption the frame layout already makes.
  while (size >= 16) {
    std::uint32_t w0;
    std::uint32_t w1;
    std::uint32_t w2;
    std::uint32_t w3;
    std::memcpy(&w0, p, sizeof w0);
    std::memcpy(&w1, p + 4, sizeof w1);
    std::memcpy(&w2, p + 8, sizeof w2);
    std::memcpy(&w3, p + 12, sizeof w3);
    w0 ^= c;
    c = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^ t[13][(w0 >> 16) & 0xFFu] ^
        t[12][w0 >> 24] ^ t[11][w1 & 0xFFu] ^ t[10][(w1 >> 8) & 0xFFu] ^
        t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24] ^ t[7][w2 & 0xFFu] ^
        t[6][(w2 >> 8) & 0xFFu] ^ t[5][(w2 >> 16) & 0xFFu] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu] ^ t[1][(w3 >> 16) & 0xFFu] ^
        t[0][w3 >> 24];
    p += 16;
    size -= 16;
  }
  for (std::size_t i = 0; i < size; ++i) {
    c = t[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

bool index_frames(std::string_view region, std::vector<FrameRef>& out) {
  std::size_t pos = 0;
  while (pos < region.size()) {
    if (region.size() - pos < kHeaderBytes) return false;  // truncated header
    if (std::memcmp(region.data() + pos, kBlockMagic, sizeof kBlockMagic) != 0) return false;
    std::uint32_t size = 0;
    std::uint32_t crc = 0;
    std::memcpy(&size, region.data() + pos + sizeof kBlockMagic, sizeof size);
    std::memcpy(&crc, region.data() + pos + sizeof kBlockMagic + sizeof size, sizeof crc);
    if (size == 0 || size > kMaxBlockPayload) return false;
    if (region.size() - pos - kHeaderBytes < size) return false;  // truncated payload
    out.push_back({pos, size, crc});
    pos += kHeaderBytes + size;
  }
  return true;
}

void append_frame(std::string& out, std::string_view payload) {
  if (payload.empty()) return;
  out.append(kBlockMagic, sizeof kBlockMagic);
  const auto size = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  out.append(reinterpret_cast<const char*>(&size), sizeof size);
  out.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  out.append(payload.data(), payload.size());
}

std::uint32_t check_file_header(std::string_view header, const char (&magic)[4],
                                const char* what, ParseMode mode) {
  std::uint32_t version = 0;
  const bool magic_ok = header.size() >= kFileHeaderBytes &&
                        std::memcmp(header.data(), magic, sizeof magic) == 0;
  if (magic_ok) std::memcpy(&version, header.data() + sizeof magic, sizeof version);
  if (mode == ParseMode::Strict) {
    if (!magic_ok) throw ParseError(std::string("not a ") + what + " (bad magic)");
    if (version != 2 && version != 3) {
      throw ParseError(std::string("unsupported ") + what + " version " +
                       std::to_string(version));
    }
  }
  return version;
}

void FrameAssembler::push(std::string_view bytes) {
  pending_.erase(0, consumed_);
  consumed_ = 0;
  pending_.append(bytes.data(), bytes.size());
}

void FrameAssembler::drop(std::size_t n) {
  consumed_ += n;
  pending_base_ += n;
}

void FrameAssembler::note_damage(std::uint64_t offset, const char* detail) {
  if (in_damage_) return;  // one sample per damaged stretch
  in_damage_ = true;
  if (mode_ == ParseMode::Strict) {
    throw ParseError(std::string(what_) + ": " + detail + " at byte offset " +
                     std::to_string(offset));
  }
  if (report_ != nullptr) {
    report_->add_malformed(IngestReason::BinaryFrame, offset, "", detail);
  }
}

bool FrameAssembler::resync() {
  const std::string_view rest = unconsumed();
  const std::size_t at = rest.find(std::string_view(kBlockMagic, sizeof kBlockMagic), 1);
  if (at != std::string_view::npos) {
    drop(at);
    return true;
  }
  // No marker in the buffer: keep a partial-marker tail in case the "CBLK"
  // straddles the next push; at end-of-stream the tail is trailing garbage
  // (already covered by the open damage stretch).
  const std::size_t keep = std::min(rest.size(), sizeof kBlockMagic - 1);
  drop(rest.size() - keep);
  if (eos_) drop(keep);
  return false;
}

bool FrameAssembler::next(std::string& payload) {
  for (;;) {
    const std::string_view rest = unconsumed();
    if (rest.empty()) return false;  // clean: everything consumed
    const std::uint64_t start = pending_base_;
    if (rest.size() < kHeaderBytes) {
      if (!eos_) return false;  // header may complete on the next push
      note_damage(start, "truncated block header");
      drop(rest.size());
      return false;
    }
    if (std::memcmp(rest.data(), kBlockMagic, sizeof kBlockMagic) != 0) {
      note_damage(start, "bad block magic");
      if (!resync()) return false;
      continue;
    }
    std::uint32_t size = 0;
    std::uint32_t crc = 0;
    std::memcpy(&size, rest.data() + sizeof kBlockMagic, sizeof size);
    std::memcpy(&crc, rest.data() + sizeof kBlockMagic + sizeof size, sizeof crc);
    if (size == 0 || size > kMaxBlockPayload) {
      note_damage(start, "implausible block size");
      if (!resync()) return false;
      continue;
    }
    if (rest.size() < kHeaderBytes + size) {
      if (!eos_) return false;  // payload still in flight
      note_damage(start, "truncated block payload");
      if (!resync()) return false;
      continue;
    }
    if (crc32(rest.data() + kHeaderBytes, size) != crc) {
      note_damage(start, "block CRC mismatch");
      if (!resync()) return false;
      continue;
    }
    payload.assign(rest.data() + kHeaderBytes, size);
    block_offset_ = start;
    drop(kHeaderBytes + size);
    in_damage_ = false;
    return true;
  }
}

namespace {

/// Bytes an offline frame walk pushes at a time.
constexpr std::size_t kWalkChunkBytes = std::size_t{64} << 10;

/// Push every chunk `next_chunk` yields (an empty view ends the input),
/// draining the assembler after each, then finish and drain the tail.
template <typename NextChunk>
void walk(FrameAssembler& frames, const NextChunk& next_chunk, const PayloadSink& on_payload) {
  std::string payload;
  const auto drain = [&] {
    while (frames.next(payload)) {
      on_payload(payload, frames.block_offset() + kHeaderBytes);
    }
  };
  for (std::string_view chunk = next_chunk(); !chunk.empty(); chunk = next_chunk()) {
    frames.push(chunk);
    drain();
  }
  frames.finish();
  drain();
}

}  // namespace

void walk_frames(FrameAssembler& frames, std::string_view input,
                 const PayloadSink& on_payload) {
  walk(
      frames,
      [&input] {
        const std::string_view chunk = input.substr(0, kWalkChunkBytes);
        input.remove_prefix(chunk.size());
        return chunk;
      },
      on_payload);
}

void walk_frames(FrameAssembler& frames, std::istream& input, const PayloadSink& on_payload) {
  std::string buf(kWalkChunkBytes, '\0');
  walk(
      frames,
      [&] {
        input.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        return std::string_view(buf.data(), static_cast<std::size_t>(input.gcount()));
      },
      on_payload);
}

void check_declared_total(std::optional<std::uint64_t> declared, std::uint64_t attempted,
                          ParseMode mode, const char* what, const char* missing,
                          IngestReport& rep) {
  if (mode == ParseMode::Strict) {
    if (!declared) throw ParseError(std::string("missing ") + missing + " in " + what);
    if (attempted != *declared) {
      throw ParseError(std::string(what) + " record count mismatch: expected " +
                       std::to_string(*declared) + ", got " + std::to_string(attempted));
    }
  } else if (declared && *declared > attempted) {
    rep.add_malformed_bulk(IngestReason::BinaryFrame, *declared - attempted);
  }
}

void PayloadCursor::read(void* dst, std::size_t n) {
  if (n > remaining()) {
    throw ParseError(std::string(what_) + ": truncated field at byte offset " +
                     std::to_string(offset()));
  }
  std::memcpy(dst, data_.data() + pos_, n);
  pos_ += n;
}

std::string_view PayloadCursor::take(std::size_t n) {
  if (n > remaining()) {
    throw ParseError(std::string(what_) + ": truncated field at byte offset " +
                     std::to_string(offset()));
  }
  const std::string_view v = data_.substr(pos_, n);
  pos_ += n;
  return v;
}

std::string PayloadCursor::get_string(std::size_t n) {
  if (n > remaining()) {
    throw ParseError(std::string(what_) + ": truncated string at byte offset " +
                     std::to_string(offset()));
  }
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

}  // namespace coral::bin
