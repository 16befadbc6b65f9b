#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coral/common/ingest.hpp"

namespace coral::bin {

/// CRC-32 (IEEE 802.3 polynomial, reflected), the zlib/gzip checksum. On
/// x86-64 hosts with PCLMULQDQ and SSE4.1 (checked once, at the first call)
/// the bulk of a payload of 64 bytes or more folds 64 bytes per step by
/// carry-less multiplication; shorter payloads, the last 0-15 bytes and
/// other hosts run slicing-by-16 tables. Both paths give the same value.
std::uint32_t crc32(const void* data, std::size_t size);

/// Which bulk kernel crc32() runs on this host: "pclmul" or "table".
const char* crc32_kernel();

/// Per-block framing shared by every binary log format (v2 row blocks and
/// the v3 columnar store, RAS and job logs alike) and the fleet wire.
///
/// Each block is `magic "CBLK" | u32 payload_size | u32 crc32(payload) |
/// payload` (all little-endian, written on little-endian hosts only — same
/// assumption the v1 record dumps already made). The frame makes corruption
/// *local*: a strict reader still throws on the first damaged byte, but a
/// lenient reader drops the damaged block and scans forward for the next
/// "CBLK" marker, so a burst of flipped bits or a mid-file truncation costs
/// one block of records instead of the whole log.
inline constexpr char kBlockMagic[4] = {'C', 'B', 'L', 'K'};
/// Upper bound on a plausible payload; larger sizes are treated as frame
/// corruption rather than honoured (a flipped size byte must not trigger a
/// gigabyte allocation).
inline constexpr std::uint32_t kMaxBlockPayload = 1u << 24;
/// Bytes of frame overhead preceding each payload (magic + size + crc).
inline constexpr std::size_t kBlockHeaderBytes =
    sizeof kBlockMagic + 2 * sizeof(std::uint32_t);

/// The raw header in front of a log file's frames: magic[4] | u32 version.
/// Offsets in reports and errors count from its end.
inline constexpr std::size_t kFileHeaderBytes = 8;

/// The file-header gate of every reader of a framed log, offline or live:
/// `header` is the first kFileHeaderBytes of the input (fewer when the input
/// is shorter). Strict mode throws ParseError "not a <what> (bad magic)" for
/// a short header or a magic other than `magic`, and "unsupported <what>
/// version N" for a version other than 2 and 3 (both logs share the two
/// format versions). Lenient mode tolerates either: the frames behind the
/// header are self-locating. Returns the version, or 0 for a short header
/// or a wrong magic.
std::uint32_t check_file_header(std::string_view header, const char (&magic)[4],
                                const char* what, ParseMode mode);

/// Append one framed block (header + crc + payload) to a byte buffer. The
/// framing is deterministic, so writers can frame blocks on worker threads
/// and concatenate the results into the exact bytes a serial writer makes.
void append_frame(std::string& out, std::string_view payload);

/// One block located by index_frames(): header at `offset` into the scanned
/// region, payload of `size` bytes at `offset + kBlockHeaderBytes`. The
/// stored checksum is carried so CRC verification can run later (and in
/// parallel) over the payload in place.
struct FrameRef {
  std::uint64_t offset = 0;
  std::uint32_t size = 0;
  std::uint32_t crc = 0;
};

/// Walk `region` as a sequence of framed blocks without touching payload
/// bytes (headers only — no CRC pass, no copies). Returns true when the
/// region is tiled exactly by well-formed frames, appending one FrameRef per
/// block; returns false at the first framing anomaly (bad magic, implausible
/// size, truncation), leaving `out` holding the frames located so far.
/// Callers that need damage recovery or exact damage messages fall back to
/// a FrameAssembler walk (walk_frames), which is the authority on both.
bool index_frames(std::string_view region, std::vector<FrameRef>& out);

/// The one frame-recovery state machine, for byte streams that arrive in
/// pieces (a socket, a tailed file, an offline input pushed in chunks):
/// push() appends raw bytes, next() yields each complete intact payload as
/// soon as its last byte is in, and finish() signals end-of-stream so the
/// final truncation accounting can run.
///
/// Strict mode throws ParseError (with the byte offset) on the first
/// damaged frame; lenient mode records the damage in `report` and
/// resynchronizes at the next "CBLK" marker. A damaged stretch — however
/// many resync steps it takes to find the next marker — is one sample in
/// `report`, and byte offsets count from the first byte ever pushed. The
/// payloads, offsets and damage a stream yields do not depend on how its
/// bytes are chunked into push()es; the session/wire ingest path leans on
/// that for its accounting parity with the offline readers, which walk
/// their inputs through walk_frames().
class FrameAssembler {
 public:
  FrameAssembler(ParseMode mode, IngestReport* report, const char* what)
      : mode_(mode), report_(report), what_(what) {}

  /// Append raw stream bytes (any chunking; frame boundaries need not align).
  void push(std::string_view bytes);

  /// Fetch the next complete intact payload. Returns false when the buffered
  /// bytes do not (yet) contain one — call again after more push()es, or
  /// after finish() to drain the tail.
  bool next(std::string& payload);

  /// Byte offset of the start of the block most recently returned.
  std::uint64_t block_offset() const { return block_offset_; }

  /// Declare end-of-stream: leftover bytes that can no longer become a
  /// complete frame are accounted as damage. next() may still yield
  /// payloads buffered before the call.
  void finish() { eos_ = true; }

  /// Bytes buffered but not yet consumed as frames (live backlog gauge).
  std::size_t buffered() const { return pending_.size() - consumed_; }

 private:
  /// The unconsumed bytes.
  std::string_view unconsumed() const {
    return std::string_view(pending_).substr(consumed_);
  }
  void drop(std::size_t n);
  void note_damage(std::uint64_t offset, const char* detail);
  /// Skip to the next possible "CBLK" marker. Returns false when the buffer
  /// was exhausted without one (wait for more bytes / end of tail).
  bool resync();

  ParseMode mode_;
  IngestReport* report_;
  const char* what_;
  std::string pending_;
  /// Prefix of pending_ already consumed as frames or damage. next() only
  /// advances it; push() compacts it away once, so a drain of many frames
  /// costs linear time in the bytes drained.
  std::size_t consumed_ = 0;
  std::uint64_t pending_base_ = 0;  ///< absolute offset of the first unconsumed byte
  std::uint64_t block_offset_ = 0;
  bool eos_ = false;
  /// True while inside a damaged stretch: follow-on damage is not re-counted
  /// until a good frame closes the stretch.
  bool in_damage_ = false;
};

/// Receives each intact payload of a frame walk and the absolute offset of
/// its first byte.
using PayloadSink = std::function<void(std::string_view payload, std::uint64_t offset)>;

/// Every offline frame walk: push a whole input through `frames` in 64 KiB
/// chunks, handing each intact payload to `on_payload` as soon as its chunk
/// is in, then declare end-of-stream and drain the tail. The input is a
/// buffer in memory, or a stream read to its end. Damage handling is the
/// assembler's: strict mode throws from here.
void walk_frames(FrameAssembler& frames, std::string_view input,
                 const PayloadSink& on_payload);
void walk_frames(FrameAssembler& frames, std::istream& input, const PayloadSink& on_payload);

/// The declared-total check that closes every read of a framed log. Strict
/// mode throws ParseError unless a declaration survived ("missing <missing>
/// in <what>") and equals the records attempted ("<what> record count
/// mismatch: expected D, got A"). Lenient mode charges the records the
/// declaration says were lost with dropped or undecodable frames to
/// IngestReason::BinaryFrame in `rep`; with no surviving declaration it
/// charges `undeclared_lost` instead, the records the caller knows lost
/// without one (the v3 segment footers' bound, bin::FooterLedger).
void check_declared_total(std::optional<std::uint64_t> declared, std::uint64_t attempted,
                          ParseMode mode, const char* what, const char* missing,
                          IngestReport& rep, std::uint64_t undeclared_lost = 0);

/// A bounds-checked little-endian cursor over one block payload — a view,
/// so it reads equally from an assembler's copied payload or from a mapped
/// file region in place. get<T> failures surface the absolute byte offset of
/// the failing field.
class PayloadCursor {
 public:
  PayloadCursor(std::string_view payload, std::uint64_t base_offset,
                const char* what)
      : data_(payload), base_(base_offset), what_(what) {}

  template <typename T>
  T get() {
    T value{};
    read(&value, sizeof value);
    return value;
  }
  void read(void* dst, std::size_t n);
  std::string get_string(std::size_t n);
  /// Zero-copy view of the next n bytes, advancing the cursor. Throws like
  /// read() when fewer than n remain; the view aliases the payload.
  std::string_view take(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }
  /// Absolute input offset of the next unread byte.
  std::uint64_t offset() const { return base_ + pos_; }
  /// The input's name for error messages ("binary RAS log", ...).
  const char* what() const { return what_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  std::uint64_t base_;
  const char* what_;
};

}  // namespace coral::bin
