#include "coral/fleet/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>

#include "coral/common/error.hpp"

namespace coral::fleet {

ReplyFields parse_fields(std::string_view body) {
  ReplyFields out;
  while (!body.empty()) {
    const std::size_t nl = body.find('\n');
    const std::string_view line =
        nl == std::string_view::npos ? body : body.substr(0, nl);
    body.remove_prefix(nl == std::string_view::npos ? body.size() : nl + 1);
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) continue;
    out.emplace(std::string(line.substr(0, eq)), std::string(line.substr(eq + 1)));
  }
  return out;
}

WireClient::WireClient(const std::string& host, int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw Error(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw Error("bad daemon address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw Error("cannot connect to " + host + ":" + std::to_string(port) + ": " + why);
  }
}

WireClient::~WireClient() { close(); }

void WireClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void WireClient::send_raw(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) throw Error("daemon connection lost while sending");
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

std::string_view WireClient::read_message() {
  char buf[64 << 10];
  for (;;) {
    if (const std::optional<std::string_view> msg = reader_.next()) return *msg;
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) throw Error("daemon closed the connection");
    reader_.push(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

std::string_view WireClient::request(char type, std::string_view body, char expect) {
  send_raw(encode_message(type, body));
  const std::string_view reply = read_message();
  if (reply.empty()) throw Error("empty reply from daemon");
  const std::string_view reply_body = reply.substr(1);
  if (reply[0] == kMsgError) {
    throw Error("daemon error: " + std::string(reply_body));
  }
  if (reply[0] != expect) {
    throw Error(std::string("unexpected reply type '") + reply[0] + "'");
  }
  return reply_body;
}

void WireClient::handshake(const Handshake& hs) {
  send_raw(encode_handshake(hs));
  const std::string_view reply = read_message();
  if (reply.empty() || reply[0] != kMsgOk) {
    const std::string_view why = reply.size() > 1 ? reply.substr(1) : "no reason given";
    throw Error("handshake rejected: " + std::string(why));
  }
}

void WireClient::send_data(stream::Source src, std::string_view bytes,
                           std::size_t chunk_bytes) {
  if (chunk_bytes == 0) chunk_bytes = 1;
  const char type = src == stream::Source::Ras ? kMsgRasData : kMsgJobData;
  while (!bytes.empty()) {
    const std::size_t n = std::min(chunk_bytes, bytes.size());
    send_raw(encode_message(type, bytes.substr(0, n)));
    bytes.remove_prefix(n);
  }
}

ReplyFields WireClient::flush() {
  return parse_fields(request(kMsgFlush, "", kMsgStats));
}

ReplyFields WireClient::finalize() {
  return parse_fields(request(kMsgFinalize, "", kMsgComplete));
}

}  // namespace coral::fleet
