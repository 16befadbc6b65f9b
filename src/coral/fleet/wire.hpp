#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "coral/common/binary_frame.hpp"
#include "coral/common/ingest.hpp"

namespace coral::fleet {

/// The fleet wire protocol: every message is one CBLK frame (the same
/// `"CBLK" | u32 size | u32 crc32 | payload` framing the binary v2/v3 log
/// files use), whose payload starts with a one-byte message type. Reusing
/// the log framing means the daemon's front door gets CRC integrity and
/// self-locating resync for free — and the corrupt-frame fuzz corpus built
/// for the file formats replays against the socket path unchanged.
///
/// Conversation shape (client drives, server replies):
///
///   -> Hello      name the tenant, its MachineModel and parse mode
///   <- Ok | Error
///   -> RasData / JobData   raw v2/v3 *file* bytes, any chunking
///   -> Flush      ask for progress (earlier data is already decoded)
///   <- Stats      live SessionStats as key=value lines
///   -> Finalize   end of both streams; run the co-analysis
///   <- Complete   summary + result/log fingerprints as key=value lines
///
/// Data chunks carry the log *file* bytes verbatim (header + framed
/// blocks), not re-framed records: transport framing is strict (a damaged
/// wire frame is a protocol error -> Error + close), while damage semantics
/// of the payload bytes stay the session decoders' business, identical to
/// reading the same file offline.
inline constexpr char kMsgHello = 'H';
inline constexpr char kMsgOk = 'O';
inline constexpr char kMsgError = 'E';     ///< body: human-readable reason
inline constexpr char kMsgRasData = 'R';   ///< body: raw RAS v2/v3 file bytes
inline constexpr char kMsgJobData = 'J';   ///< body: raw job v2/v3 file bytes
inline constexpr char kMsgFlush = 'F';
inline constexpr char kMsgStats = 'S';     ///< body: key=value lines
inline constexpr char kMsgFinalize = 'Q';
inline constexpr char kMsgComplete = 'C';  ///< body: key=value lines

/// Hello payload: which tenant this connection feeds, which registered
/// MachineModel it runs on, and how strict the ingest should be.
struct Handshake {
  std::string tenant;
  std::string machine;  ///< machine::find_model() name, e.g. "bgp"
  ParseMode mode = ParseMode::Lenient;
  /// Ignored and not on the wire: a session decodes on feed and has no
  /// over-quota policy. Kept because the e2e benchmark package sets it.
  bool shed_overflow = false;
};

/// Frame one message: type byte + body, CBLK-framed.
std::string encode_message(char type, std::string_view body);

std::string encode_handshake(const Handshake& hs);
/// Parse a Hello body (the message type byte already stripped). Throws
/// ParseError on a malformed or implausible handshake.
Handshake decode_handshake(std::string_view body);

/// Incremental strict-mode message parser for one connection: push() raw
/// socket bytes, next() yields complete messages (type byte + body) in
/// order, each a view that stays valid until the next push(). Any framing
/// damage — bad magic, CRC mismatch, implausible size — throws ParseError:
/// transport corruption is a protocol error, not something to resync past
/// (the caller replies Error and closes).
class MessageReader {
 public:
  MessageReader() : frames_(ParseMode::Strict, nullptr, "fleet wire") {}

  void push(std::string_view bytes) { frames_.push(bytes); }
  std::optional<std::string_view> next() { return frames_.next(); }

 private:
  bin::FrameAssembler frames_;
};

/// Tenant names become Prometheus label values and map keys; constrain them
/// to [A-Za-z0-9_.-], 1..64 bytes, so no escaping layer is ever needed.
bool valid_tenant_name(std::string_view name);

}  // namespace coral::fleet
