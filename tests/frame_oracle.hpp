// Frozen reference implementation of the CBLK frame walk: the istream-pulling
// recovering reader the library shipped before every offline frame walk
// moved onto bin::FrameAssembler. It is kept verbatim (same fill size, same
// per-call damage flag, same resync) so the differential test in
// test_ingest.cpp can pin the assembler's payloads, block offsets, damage
// samples and strict error texts to it for any push chunking. Nothing here
// may change to make an assembler result pass.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <string>

#include "coral/common/binary_frame.hpp"
#include "coral/common/error.hpp"
#include "coral/common/ingest.hpp"

namespace coral::oracle {

/// Reads framed blocks back. Strict mode throws ParseError (with the byte
/// offset) on any damaged frame; lenient mode records the damage in `report`
/// and resynchronizes at the next block marker.
class BlockReader {
 public:
  BlockReader(std::istream& in, ParseMode mode, IngestReport* report,
              const char* what)
      : in_(in), mode_(mode), report_(report), what_(what) {}

  /// Fetch the next intact block payload. Returns false at end of input
  /// (clean EOF in strict mode; in lenient mode also after trailing
  /// garbage, which is counted as one dropped frame).
  bool next(std::string& payload);

  /// Byte offset of the start of the block most recently returned.
  std::uint64_t block_offset() const { return block_offset_; }

 private:
  void fill(std::size_t want);
  void drop(std::size_t n);
  void note_damage(std::uint64_t offset, const char* detail);

  static constexpr std::size_t kHeaderBytes = bin::kBlockHeaderBytes;

  std::istream& in_;
  ParseMode mode_;
  IngestReport* report_;
  const char* what_;  ///< "binary RAS log" / "binary job log" for messages
  std::string pending_;           ///< bytes consumed from `in_`, not yet parsed
  std::uint64_t pending_base_ = 0;  ///< absolute offset of pending_[0]
  std::uint64_t block_offset_ = 0;
};

inline void BlockReader::fill(std::size_t want) {
  constexpr std::size_t kChunk = 64 * 1024;
  while (pending_.size() < want && in_.good()) {
    const std::size_t old = pending_.size();
    const std::size_t grow = std::max(want - old, kChunk);
    pending_.resize(old + grow);
    in_.read(pending_.data() + old, static_cast<std::streamsize>(grow));
    pending_.resize(old + static_cast<std::size_t>(in_.gcount()));
  }
}

inline void BlockReader::drop(std::size_t n) {
  pending_.erase(0, n);
  pending_base_ += n;
}

inline void BlockReader::note_damage(std::uint64_t offset, const char* detail) {
  if (mode_ == ParseMode::Strict) {
    throw ParseError(std::string(what_) + ": " + detail + " at byte offset " +
                     std::to_string(offset));
  }
  if (report_ != nullptr) {
    report_->add_malformed(IngestReason::BinaryFrame, offset, "", detail);
  }
}

inline bool BlockReader::next(std::string& payload) {
  using bin::kBlockMagic;
  using bin::kMaxBlockPayload;
  // One damaged stretch — however many scan steps it takes to resynchronize —
  // is reported as a single dropped frame.
  bool damage_noted = false;
  const auto damaged = [&](std::uint64_t offset, const char* detail) {
    if (!damage_noted) note_damage(offset, detail);
    damage_noted = true;
  };
  // Skip ahead to the next "CBLK" marker at index >= 1, or (almost) all of
  // the buffer when none is present, keeping a partial-marker tail.
  const auto resync = [&] {
    const std::size_t at = pending_.find(kBlockMagic, 1, sizeof kBlockMagic);
    if (at != std::string::npos) {
      drop(at);
    } else {
      const std::size_t keep =
          pending_.size() < sizeof kBlockMagic - 1 ? pending_.size() : sizeof kBlockMagic - 1;
      drop(pending_.size() - keep);
      fill(kHeaderBytes);
      if (pending_.size() < kHeaderBytes) drop(pending_.size());  // trailing garbage
    }
  };

  for (;;) {
    fill(kHeaderBytes);
    if (pending_.empty()) return false;  // clean end of input
    const std::uint64_t start = pending_base_;
    if (pending_.size() < kHeaderBytes) {
      damaged(start, "truncated block header");
      drop(pending_.size());
      return false;
    }
    if (std::memcmp(pending_.data(), kBlockMagic, sizeof kBlockMagic) != 0) {
      damaged(start, "bad block magic");
      resync();
      continue;
    }
    std::uint32_t size = 0;
    std::uint32_t crc = 0;
    std::memcpy(&size, pending_.data() + sizeof kBlockMagic, sizeof size);
    std::memcpy(&crc, pending_.data() + sizeof kBlockMagic + sizeof size, sizeof crc);
    if (size == 0 || size > kMaxBlockPayload) {
      damaged(start, "implausible block size");
      resync();
      continue;
    }
    fill(kHeaderBytes + size);
    if (pending_.size() < kHeaderBytes + size) {
      damaged(start, "truncated block payload");
      // The truncated tail cannot hold a complete block (it is shorter than
      // this one), but may still contain a marker for a shorter final block.
      resync();
      if (pending_.empty()) return false;
      continue;
    }
    if (bin::crc32(pending_.data() + kHeaderBytes, size) != crc) {
      damaged(start, "block CRC mismatch");
      resync();
      continue;
    }
    payload.assign(pending_, kHeaderBytes, size);
    block_offset_ = start;
    drop(kHeaderBytes + size);
    return true;
  }
}

}  // namespace coral::oracle
