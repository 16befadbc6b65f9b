#include "coral/common/lz.hpp"

#include <cstring>

namespace coral::bin::lz {

namespace {

constexpr std::size_t kMinMatch = 4;

}  // namespace

bool decompress(std::string_view src, char* dst, std::size_t dst_size) {
  std::size_t ip = 0;
  std::size_t op = 0;
  const auto read_length = [&](std::size_t base, std::size_t& len) {
    len = base;
    if (base != 15) return true;
    for (;;) {
      if (ip >= src.size()) return false;
      const auto b = static_cast<std::uint8_t>(src[ip++]);
      len += b;
      if (b != 255) return true;
      // A damaged stream of 0xFF bytes must not spin past any plausible
      // length; the dst_size checks below catch the overflow either way.
      if (len > dst_size + 255) return false;
    }
  };

  while (op < dst_size) {
    if (ip >= src.size()) return false;
    const auto token = static_cast<std::uint8_t>(src[ip++]);
    std::size_t lit_len = 0;
    if (!read_length(token >> 4, lit_len)) return false;
    if (lit_len > dst_size - op || lit_len > src.size() - ip) return false;
    std::memcpy(dst + op, src.data() + ip, lit_len);
    ip += lit_len;
    op += lit_len;
    if (op == dst_size) break;  // final literal-only group

    if (src.size() - ip < 2) return false;
    const std::size_t offset = static_cast<std::uint8_t>(src[ip]) |
                               (static_cast<std::size_t>(static_cast<std::uint8_t>(src[ip + 1])) << 8);
    ip += 2;
    if (offset == 0 || offset > op) return false;
    std::size_t match_len = 0;
    if (!read_length(token & 0xF, match_len)) return false;
    match_len += kMinMatch;
    if (match_len > dst_size - op) return false;
    const char* from = dst + op - offset;
    if (offset >= match_len) {
      std::memcpy(dst + op, from, match_len);
    } else {
      for (std::size_t i = 0; i < match_len; ++i) dst[op + i] = from[i];
    }
    op += match_len;
  }
  return op == dst_size && ip == src.size();
}

}  // namespace coral::bin::lz
