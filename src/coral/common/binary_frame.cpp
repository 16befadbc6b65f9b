#include "coral/common/binary_frame.hpp"

#include <algorithm>
#include <cstring>
#include <istream>

#include "coral/common/error.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CORAL_CRC_CLMUL 1
#include <immintrin.h>
#endif

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

/// Slicing-by-16 over [p, p + size) from the running (pre-inverted) state
/// `c`: the whole checksum on hosts without PCLMUL, and the tail behind the
/// carry-less bulk on hosts with it.
std::uint32_t crc32_slice16(std::uint32_t c, const unsigned char* p, std::size_t size) {
  const auto& t = crc_table().entries;
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
  return c;
}

#ifdef CORAL_CRC_CLMUL

/// Payloads shorter than this stay on the table path: the fold needs four
/// 16-byte lanes to start.
constexpr std::size_t kClmulMinBytes = 64;

bool clmul_supported() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return ok;
}

/// One fold step: carry-less multiply the two 64-bit halves of `x` by the
/// two constants in `k` (x^(n+32) and x^(n-32) mod P, bit-reflected, for a
/// fold distance of n bits) and add the 128 data bits that distance ahead.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i x, __m128i k,
                                                               __m128i ahead) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       ahead);
}

/// CRC-32 of [p, p + size) from the running state `c` by carry-less
/// multiplication (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ", Intel 2009), for the reflected polynomial
/// 0xEDB88320. `size` is at least 64 and a multiple of 16. Four 128-bit
/// lanes fold 64 bytes per step; the lanes then fold into one, which takes
/// the remaining 16-byte chunks, and a Barrett reduction turns the last
/// 128 bits into the 32-bit state.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_clmul(std::uint32_t c,
                                                                   const unsigned char* p,
                                                                   std::size_t size) {
  // Fold constants, bit-reflected and shifted left by one as the reflected
  // domain needs: x^(512+32) and x^(512-32) mod P for the 512-bit lane
  // stride, x^(128+32) and x^(128-32) mod P for the 128-bit stride, and
  // x^64 mod P for the 64-to-32-bit step.
  const __m128i k_lanes = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k_single = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k_64 = _mm_set_epi64x(0, 0x0163cd6124);
  // Barrett pair: P itself (x^32 + ...) and floor(x^64 / P), both reflected.
  const __m128i barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };

  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  size -= 64;
  while (size >= 64) {
    x0 = fold(x0, k_lanes, load(p));
    x1 = fold(x1, k_lanes, load(p + 16));
    x2 = fold(x2, k_lanes, load(p + 32));
    x3 = fold(x3, k_lanes, load(p + 48));
    p += 64;
    size -= 64;
  }
  x0 = fold(x0, k_single, x1);
  x0 = fold(x0, k_single, x2);
  x0 = fold(x0, k_single, x3);
  for (; size >= 16; p += 16, size -= 16) x0 = fold(x0, k_single, load(p));

  // 128 -> 64 bits: the low half times x^(128-32) mod P, added to the high
  // half.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k_single, 0x10));
  // 64 -> 32 bits (with the 32 bits of headroom the Barrett step needs).
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k_64, 0x00));
  // Barrett: q = low32(x) * floor(x^64 / P), then x - low32(q) * P leaves
  // the remainder in bits 32..63.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

#endif  // CORAL_CRC_CLMUL

constexpr std::size_t kHeaderBytes = kBlockHeaderBytes;

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
#ifdef CORAL_CRC_CLMUL
  if (size >= kClmulMinBytes && clmul_supported()) {
    const std::size_t bulk = size & ~std::size_t{15};
    c = crc32_clmul(c, p, bulk);
    p += bulk;
    size -= bulk;
  }
#endif
  return crc32_slice16(c, p, size) ^ 0xFFFFFFFFu;
}

const char* crc32_kernel() {
#ifdef CORAL_CRC_CLMUL
  if (clmul_supported()) return "pclmul";
#endif
  return "table";
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

std::optional<std::string_view> FrameAssembler::next() {
  for (;;) {
    const std::string_view rest = unconsumed();
    if (rest.empty()) return std::nullopt;  // clean: everything consumed
    const std::uint64_t start = pending_base_;
    if (rest.size() < kHeaderBytes) {
      if (!eos_) return std::nullopt;  // header may complete on the next push
      note_damage(start, "truncated block header");
      drop(rest.size());
      return std::nullopt;
    }
    if (std::memcmp(rest.data(), kBlockMagic, sizeof kBlockMagic) != 0) {
      note_damage(start, "bad block magic");
      if (!resync()) return std::nullopt;
      continue;
    }
    std::uint32_t size = 0;
    std::uint32_t crc = 0;
    std::memcpy(&size, rest.data() + sizeof kBlockMagic, sizeof size);
    std::memcpy(&crc, rest.data() + sizeof kBlockMagic + sizeof size, sizeof crc);
    if (size == 0 || size > kMaxBlockPayload) {
      note_damage(start, "implausible block size");
      if (!resync()) return std::nullopt;
      continue;
    }
    if (rest.size() < kHeaderBytes + size) {
      if (!eos_) return std::nullopt;  // payload still in flight
      note_damage(start, "truncated block payload");
      if (!resync()) return std::nullopt;
      continue;
    }
    if (crc32(rest.data() + kHeaderBytes, size) != crc) {
      note_damage(start, "block CRC mismatch");
      if (!resync()) return std::nullopt;
      continue;
    }
    block_offset_ = start;
    drop(kHeaderBytes + size);
    in_damage_ = false;
    return rest.substr(kHeaderBytes, size);
  }
}

void FramedInput::take_header(std::string_view& bytes) {
  if (header_.size() == kFileHeaderBytes) return;
  const std::size_t got = std::min(kFileHeaderBytes - header_.size(), bytes.size());
  header_.append(bytes.data(), got);
  bytes.remove_prefix(got);
  if (header_.size() == kFileHeaderBytes) {
    version_ = check_file_header(header_, magic_, what_, mode_);
  }
}

void FramedInput::drain(const PayloadSink& on_payload) {
  while (const std::optional<std::string_view> payload = frames_.next()) {
    on_payload(*payload, frames_.block_offset() + kHeaderBytes);
  }
}

void FramedInput::push(std::string_view bytes, const PayloadSink& on_payload) {
  take_header(bytes);
  if (bytes.empty()) return;
  frames_.push(bytes);
  drain(on_payload);
}

void FramedInput::finish(const PayloadSink& on_payload) {
  // Fewer than kFileHeaderBytes ever arrived: strict mode's "bad magic".
  if (header_.size() < kFileHeaderBytes) check_file_header(header_, magic_, what_, mode_);
  frames_.finish();
  drain(on_payload);
}

std::size_t FramedInput::read_header(std::istream& in) {
  char header[kFileHeaderBytes];
  in.read(header, sizeof header);
  std::string_view bytes(header, static_cast<std::size_t>(in.gcount()));
  take_header(bytes);
  return header_.size();
}

std::uint64_t FramedInput::read_frames(std::istream& in, const PayloadSink& on_payload) {
  // Bytes an offline read pushes at a time.
  std::string chunk(std::size_t{64} << 10, '\0');
  std::uint64_t read = 0;
  for (;;) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    push(std::string_view(chunk.data(), got), on_payload);
    read += got;
  }
  finish(on_payload);
  return read;
}

std::optional<std::uint64_t> bytes_left(std::istream& in) {
  const auto pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) return std::nullopt;
  return static_cast<std::uint64_t>(end - pos);
}

void check_declared_total(std::optional<std::uint64_t> declared, std::uint64_t attempted,
                          ParseMode mode, const char* what, const char* missing,
                          IngestReport& rep, std::uint64_t undeclared_lost) {
  if (mode == ParseMode::Strict) {
    if (!declared) throw ParseError(std::string("missing ") + missing + " in " + what);
    if (attempted != *declared) {
      throw ParseError(std::string(what) + " record count mismatch: expected " +
                       std::to_string(*declared) + ", got " + std::to_string(attempted));
    }
  } else if (!declared) {
    rep.add_malformed_bulk(IngestReason::BinaryFrame, undeclared_lost);
  } else if (*declared > attempted) {
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
