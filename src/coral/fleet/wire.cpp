#include "coral/fleet/wire.hpp"

#include <cstring>

#include "coral/common/error.hpp"

namespace coral::fleet {

std::string encode_message(char type, std::string_view body) {
  std::string payload;
  payload.reserve(1 + body.size());
  payload.push_back(type);
  payload.append(body);
  const auto size = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = bin::crc32(payload.data(), payload.size());
  std::string out;
  out.reserve(bin::kBlockHeaderBytes + payload.size());
  out.append(bin::kBlockMagic, sizeof bin::kBlockMagic);
  out.append(reinterpret_cast<const char*>(&size), sizeof size);
  out.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  out.append(payload);
  return out;
}

bool valid_tenant_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

namespace {

void put_u16(std::string& out, std::uint16_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

}  // namespace

std::string encode_handshake(const Handshake& hs) {
  std::string body;
  put_u16(body, static_cast<std::uint16_t>(hs.tenant.size()));
  body.append(hs.tenant);
  put_u16(body, static_cast<std::uint16_t>(hs.machine.size()));
  body.append(hs.machine);
  body.push_back(hs.mode == ParseMode::Strict ? 1 : 0);
  return encode_message(kMsgHello, body);
}

Handshake decode_handshake(std::string_view body) {
  bin::PayloadCursor cur(body, 0, "fleet handshake");
  Handshake hs;
  const auto tenant_len = cur.get<std::uint16_t>();
  hs.tenant = cur.get_string(tenant_len);
  const auto machine_len = cur.get<std::uint16_t>();
  hs.machine = cur.get_string(machine_len);
  const auto mode = cur.get<std::uint8_t>();
  if (mode > 1) throw ParseError("bad parse mode in fleet handshake");
  hs.mode = mode == 1 ? ParseMode::Strict : ParseMode::Lenient;
  if (!cur.at_end()) throw ParseError("trailing bytes in fleet handshake");
  if (!valid_tenant_name(hs.tenant)) {
    throw ParseError("bad tenant name in fleet handshake (want [A-Za-z0-9_.-]{1,64})");
  }
  return hs;
}

}  // namespace coral::fleet
