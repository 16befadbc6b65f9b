#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace coral::bin {

/// LEB128 varints + zigzag, the integer codec of the v3 column blocks
/// (see ras/binary_io.hpp for the format contract). Encoders write through
/// a pointer into block scratch the caller sized for the worst case
/// (kMaxVarintBytes a value); decoders read from a string_view with an
/// explicit cursor and report malformed input by returning false — the
/// block decoders translate that into their usual strict-throw /
/// lenient-skip behaviour.

/// The longest encoding of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Write `v` at `p`; returns the byte after it.
inline char* put_varint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

/// Map signed to unsigned so small negative deltas stay short: 0,-1,1,-2 ->
/// 0,1,2,3.
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

inline char* put_varint_signed(char* p, std::int64_t v) { return put_varint(p, zigzag(v)); }

/// Decode one varint at `pos`, advancing it. Returns false on truncation or
/// an over-long encoding (more than 10 bytes — a flipped continuation bit
/// must not read past the 64-bit range).
inline bool get_varint(std::string_view data, std::size_t& pos, std::uint64_t& out) {
  std::uint64_t v = 0;
  int shift = 0;
  while (pos < data.size() && shift < 64) {
    const auto byte = static_cast<std::uint8_t>(data[pos++]);
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

inline bool get_varint_signed(std::string_view data, std::size_t& pos, std::int64_t& out) {
  std::uint64_t raw = 0;
  if (!get_varint(data, pos, raw)) return false;
  out = unzigzag(raw);
  return true;
}

}  // namespace coral::bin
