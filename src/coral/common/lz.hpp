#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace coral::bin::lz {

/// Decoder for the in-repo LZ77 codec (codec byte 1) of v3 column blocks.
/// The writers write every block raw; this stays so that stores written
/// with compression on still load. The container must stay
/// dependency-free, so the codec is a small LZ4-style scheme rather than a
/// binding to an external one.
///
/// Stream layout: a sequence of {token | extended literal length | literals
/// | u16 LE match offset | extended match length} groups, LZ4 token
/// semantics (high nibble literal length, low nibble match length - 4, 15 =
/// "read 255-terminated extension bytes"). The final group carries only
/// literals — the decoder stops when the output reaches its declared size,
/// so no end marker is needed. Match offsets are <= 65535 and matches are
/// at least 4 bytes. tests/lz_fixture.hpp keeps the compressor that wrote
/// such stores.

/// Decompress exactly `dst_size` bytes into `dst`. Returns false on any
/// malformed input (truncated stream, offset pointing before the output
/// start, lengths overrunning `dst_size`) without writing out of bounds —
/// a CRC-valid but damaged block must fail cleanly, not scribble.
bool decompress(std::string_view src, char* dst, std::size_t dst_size);

}  // namespace coral::bin::lz
