// Frozen fixture generator for the LZ decode paths: the in-repo LZ
// compressor the v3 writers ran on every column body until they began
// writing raw blocks, kept verbatim, and lz_image(), which turns a raw-block
// v3 image back into the image those writers produced with compression on.
// Stores written that way must keep loading, so the LZ decode tests feed on
// these images. Nothing here may change to make a decoder result pass.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "corrupt.hpp"

#include "coral/common/binary_frame.hpp"
#include "coral/common/storev3.hpp"

namespace coral::testing {

namespace lz {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr int kHashBits = 13;

inline std::uint32_t hash4(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline void put_length(std::string& out, std::size_t extra) {
  while (extra >= 255) {
    out.push_back(static_cast<char>(0xFF));
    extra -= 255;
  }
  out.push_back(static_cast<char>(extra));
}

inline void put_group(std::string& out, std::string_view src, std::size_t lit_begin,
                      std::size_t lit_end, std::size_t offset, std::size_t match_len) {
  const std::size_t lit_len = lit_end - lit_begin;
  const std::uint8_t lit_nib = lit_len < 15 ? static_cast<std::uint8_t>(lit_len) : 15;
  std::uint8_t match_nib = 0;
  if (match_len != 0) {
    const std::size_t m = match_len - kMinMatch;
    match_nib = m < 15 ? static_cast<std::uint8_t>(m) : 15;
  }
  out.push_back(static_cast<char>((lit_nib << 4) | match_nib));
  if (lit_nib == 15) put_length(out, lit_len - 15);
  out.append(src.data() + lit_begin, lit_len);
  if (match_len == 0) return;  // final literal-only group
  const auto off = static_cast<std::uint16_t>(offset);
  out.push_back(static_cast<char>(off & 0xFF));
  out.push_back(static_cast<char>(off >> 8));
  if (match_nib == 15) put_length(out, match_len - kMinMatch - 15);
}

/// Append the LZ form of `src` to `out` (the stream layout of
/// coral/common/lz.hpp, greedy over a 4-byte hash table); returns the bytes
/// appended.
inline std::size_t compress(std::string_view src, std::string& out) {
  const std::size_t start = out.size();
  // Hash slots hold position + 1; 0 = empty.
  std::uint32_t table[1u << kHashBits] = {};

  std::size_t pos = 0;
  std::size_t lit_begin = 0;
  // Stop probing 4 bytes short so hash4/match reads stay in bounds.
  while (src.size() - pos >= kMinMatch) {
    const std::uint32_t h = hash4(src.data() + pos);
    const std::uint32_t prev = table[h];
    table[h] = static_cast<std::uint32_t>(pos + 1);
    if (prev != 0) {
      const std::size_t at = prev - 1;
      if (pos - at <= kMaxOffset &&
          std::memcmp(src.data() + at, src.data() + pos, kMinMatch) == 0) {
        std::size_t len = kMinMatch;
        while (pos + len < src.size() && src[at + len] == src[pos + len]) ++len;
        put_group(out, src, lit_begin, pos, pos - at, len);
        pos += len;
        lit_begin = pos;
        continue;
      }
    }
    ++pos;
  }
  // A stream may legitimately end on a match; emit a final literal-only
  // group only when there is a tail to carry (the decoder stops at the
  // declared output size, not at a terminator).
  if (lit_begin < src.size()) put_group(out, src, lit_begin, src.size(), 0, 0);
  return out.size() - start;
}

}  // namespace lz

/// The v3 image (RAS or job) a writer with LZ compression on produced for
/// the log whose raw-block image is `raw`: the 'M' meta flag set, every
/// column body LZ-compressed when that shrinks it by at least 1/8 (codec
/// byte 1) and kept raw otherwise, and the segment footers rebuilt over the
/// new block offsets through bin::SegmentWriter, with the segment size the
/// raw image's first footer shows.
inline std::string lz_image(const std::string& raw) {
  constexpr char kFooterTag = 'S';  // both logs' segment footer tag
  std::vector<std::string_view> payloads;
  for (const std::size_t p : frame_offsets(raw)) {
    std::uint32_t size = 0;
    std::memcpy(&size, raw.data() + p + sizeof bin::kBlockMagic, sizeof size);
    payloads.push_back(std::string_view(raw).substr(p + bin::kBlockHeaderBytes, size));
  }
  std::uint32_t blocks_per_segment = 1;
  for (const std::string_view payload : payloads) {
    if (payload[0] == kFooterTag) {
      std::memcpy(&blocks_per_segment, payload.data() + 1, sizeof blocks_per_segment);
      break;
    }
  }

  std::ostringstream out;
  out.write(raw.data(), bin::kFileHeaderBytes);
  std::string head;
  std::optional<bin::SegmentWriter> segments;
  for (const std::string_view payload : payloads) {
    if (payload[0] == 'M') {
      std::string meta(payload);
      meta.back() = static_cast<char>(bin::kStoreFlagCompressed);
      bin::append_frame(head, meta);
    } else if (payload[0] == 'C') {
      if (!segments) {
        out.write(head.data(), static_cast<std::streamsize>(head.size()));
        segments.emplace(out, kFooterTag, head.size(), blocks_per_segment);
      }
      const std::string_view body = payload.substr(bin::kColumnHeaderBytes);
      std::string block(payload.substr(0, bin::kColumnHeaderBytes));
      const std::size_t lz_size = lz::compress(body, block);
      if (lz_size + body.size() / 8 <= body.size()) {
        block[bin::kColumnHeaderBytes - 5] = static_cast<char>(bin::kCodecLz);
        segments->write_block(block);
      } else {
        segments->write_block(payload);
      }
    } else if (payload[0] != kFooterTag) {
      bin::append_frame(head, payload);
    }
  }
  if (segments) {
    segments->finish();
  } else {
    out.write(head.data(), static_cast<std::streamsize>(head.size()));
  }
  return std::move(out).str();
}

}  // namespace coral::testing
