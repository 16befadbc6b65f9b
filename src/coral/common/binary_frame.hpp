#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

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

/// The file-header gate in front of a framed log's frames (FramedInput runs
/// it for every reader, offline or live): `header` is the first
/// kFileHeaderBytes of the input (fewer when the input is shorter). Strict
/// mode throws ParseError "not a <what> (bad magic)" for a short header or a
/// magic other than `magic`, and "unsupported <what> version N" for a version
/// other than 2 and 3 (both logs share the two format versions). Lenient mode
/// tolerates either: the frames behind the header are self-locating. Returns
/// the version, or 0 for a short header or a wrong magic.
std::uint32_t check_file_header(std::string_view header, const char (&magic)[4],
                                const char* what, ParseMode mode);

/// Append one framed block (header + crc + payload) to a byte buffer. The
/// framing is deterministic, so writers can frame blocks on worker threads
/// and concatenate the results into the exact bytes a serial writer makes.
void append_frame(std::string& out, std::string_view payload);

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
/// bytes are chunked into push()es; the session ingest path leans on that
/// for its accounting parity with the offline readers (both run it behind
/// a FramedInput).
class FrameAssembler {
 public:
  FrameAssembler(ParseMode mode, IngestReport* report, const char* what)
      : mode_(mode), report_(report), what_(what) {}

  /// Append raw stream bytes (any chunking; frame boundaries need not align).
  void push(std::string_view bytes);

  /// The next complete intact payload, as a view of the assembler's buffer
  /// that stays valid until the next push() (next() and finish() leave it
  /// alone). nullopt when the buffered bytes do not (yet) hold one — call
  /// again after more push()es, or after finish() to drain the tail.
  std::optional<std::string_view> next();

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

/// Receives each intact payload of a framed input and the absolute offset of
/// its first byte. The view lives until the input's next push.
using PayloadSink = std::function<void(std::string_view payload, std::uint64_t offset)>;

/// The front door of every framed log read, offline or live: the
/// file-header gate, one FrameAssembler and the frame-damage report it
/// fills. The first kFileHeaderBytes pushed are the header, judged by
/// check_file_header once all of them are in (or at finish(), for a shorter
/// input); every later byte goes to the assembler. ras::read_binary,
/// joblog::read_binary and both sources of a stream::Session construct one,
/// so a live feed and an offline read of the same bytes take one path.
class FramedInput {
 public:
  FramedInput(ParseMode mode, const char (&magic)[4], const char* what)
      : mode_(mode), magic_(magic), what_(what), frames_(mode, &damage_, what) {}
  FramedInput(const FramedInput&) = delete;
  FramedInput& operator=(const FramedInput&) = delete;

  /// Append input bytes (any chunking) and hand each payload they complete
  /// to `on_payload`, in input order, before returning. Afterwards the
  /// assembler holds at most one incomplete frame (kMaxBlockPayload bounds
  /// it). Strict mode throws ParseError on a bad header or the first damaged
  /// frame.
  void push(std::string_view bytes, const PayloadSink& on_payload);

  /// End of input: a header cut short gets the gate's verdict, bytes that
  /// can no longer complete a frame count as damage, and the payloads still
  /// buffered go to `on_payload`.
  void finish(const PayloadSink& on_payload);

  /// The offline read of a stream, in two steps so a reader can size its
  /// reservation by version() before a block decodes: read_header() takes
  /// the file header from `in` and returns how many bytes it got;
  /// read_frames() pushes the rest of `in` in 64 KiB chunks, then finish()es,
  /// and returns the bytes it read.
  std::size_t read_header(std::istream& in);
  std::uint64_t read_frames(std::istream& in, const PayloadSink& on_payload);

  /// The header's version once all of it is in; 0 before that, or for a
  /// wrong magic (which lenient mode reads past).
  std::uint32_t version() const { return version_; }
  /// Bytes pushed but not yet handed out or judged damaged: at most one
  /// incomplete frame between pushes (the session's backlog gauge).
  std::size_t buffered() const { return frames_.buffered(); }
  /// Framing-layer damage samples, one per damaged stretch (the decoders'
  /// finish() adopts them).
  const IngestReport& damage() const { return damage_; }

 private:
  /// Move the header's bytes from the front of `bytes` into header_, and
  /// run the gate once it is complete.
  void take_header(std::string_view& bytes);
  void drain(const PayloadSink& on_payload);

  ParseMode mode_;
  const char (&magic_)[4];
  const char* what_;
  std::string header_;
  std::uint32_t version_ = 0;
  IngestReport damage_;
  FrameAssembler frames_;
};

/// Bytes from `in`'s read position to its end, for a seekable stream (a
/// file, a string stream; the position is restored), else nullopt. The
/// offline readers cap their declared-total reservation by what the rest of
/// their input could hold, so a corrupt count cannot force a huge
/// allocation.
std::optional<std::uint64_t> bytes_left(std::istream& in);

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

/// A bounds-checked little-endian cursor over one block payload (a view of
/// the payload an assembler yielded). get<T> failures surface the absolute
/// byte offset of the failing field.
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
