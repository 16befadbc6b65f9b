#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>

#include "coral/fleet/wire.hpp"
#include "coral/stream/session.hpp"

namespace coral::fleet {

/// A reply body's key=value lines, parsed. Fingerprints arrive as 16-digit
/// hex strings under "result_fp"/"log_fp".
using ReplyFields = std::map<std::string, std::string>;
ReplyFields parse_fields(std::string_view body);

/// Blocking feeder-side client for the fleet wire protocol — what the
/// feeder example, the parity tests and the CI smoke stage all drive. One
/// client is one connection is (at most) one tenant. Not thread-safe; run
/// one per feeder thread.
class WireClient {
 public:
  /// Connect to a daemon's wire port. Throws Error on refusal.
  WireClient(const std::string& host, int port);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Introduce the tenant. Throws Error with the daemon's reason on
  /// rejection (unknown machine, name clash, bad name).
  void handshake(const Handshake& hs);

  /// Stream raw v2 or v3 log-file bytes, re-framed into wire messages of at
  /// most `chunk_bytes` each. Data messages are unacknowledged (errors
  /// surface at the next flush()/finalize(), or as a hangup).
  void send_data(stream::Source src, std::string_view bytes,
                 std::size_t chunk_bytes = std::size_t{256} << 10);

  /// Fetch the tenant's live SessionStats. The daemon decodes each data
  /// message as it arrives, so the reply counts every byte sent before it.
  ReplyFields flush();

  /// End both streams, run the co-analysis, fetch the summary +
  /// result/log fingerprints.
  ReplyFields finalize();

  void close();

 private:
  void send_raw(std::string_view bytes);
  /// Block until one complete message arrives; returns type byte + body, a
  /// view valid until the next read.
  std::string_view read_message();
  /// Send `type`+body, await a reply of `expect` type and return its body
  /// (valid until the next read); 'E' replies throw.
  std::string_view request(char type, std::string_view body, char expect);

  int fd_ = -1;
  MessageReader reader_;
};

}  // namespace coral::fleet
