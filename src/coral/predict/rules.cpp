#include "coral/predict/rules.hpp"

#include <cstring>
#include <sstream>

#include "coral/common/binary_frame.hpp"
#include "coral/common/error.hpp"

namespace coral::predict {

namespace {

constexpr char kMagic[4] = {'C', 'R', 'U', 'L'};
constexpr std::size_t kHeaderBytes = sizeof kMagic + sizeof(std::uint32_t);
constexpr char kRulesTag = 'T';

void append_raw(std::string& out, const void* data, std::size_t size) {
  out.append(static_cast<const char*>(data), size);
}

template <typename T>
void append_value(std::string& out, T value) {
  append_raw(out, &value, sizeof value);
}

[[noreturn]] void reject(const std::string& detail) {
  throw ParseError("rule table: " + detail);
}

}  // namespace

const char* to_string(RuleScope scope) {
  switch (scope) {
    case RuleScope::Midplane:
      return "midplane";
    case RuleScope::Machine:
      return "machine";
  }
  return "?";
}

std::string RuleTable::serialize() const {
  std::string payload;
  payload.reserve(1 + sizeof(std::uint32_t) + rules.size() * 25);
  payload.push_back(kRulesTag);
  append_value(payload, static_cast<std::uint32_t>(rules.size()));
  for (const Rule& r : rules) {
    append_value(payload, static_cast<std::int32_t>(r.precursor));
    append_value(payload, static_cast<std::int32_t>(r.target));
    append_value(payload, static_cast<std::uint8_t>(r.scope));
    append_value(payload, static_cast<std::int64_t>(r.window));
    append_value(payload, r.support);
    append_value(payload, r.precursor_count);
  }

  std::string out;
  out.reserve(kHeaderBytes + bin::kBlockHeaderBytes + payload.size());
  append_raw(out, kMagic, sizeof kMagic);
  append_value(out, kRuleTableVersion);
  bin::append_frame(out, payload);
  return out;
}

RuleTable RuleTable::deserialize(std::string_view bytes, const ras::Catalog& catalog) {
  if (bytes.size() < kHeaderBytes) reject("truncated header");
  if (bytes.compare(0, sizeof kMagic, kMagic, sizeof kMagic) != 0)
    reject("bad magic (not a CRUL rule table)");
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof kMagic, sizeof version);
  if (version != kRuleTableVersion)
    reject("unsupported version " + std::to_string(version));

  // Strict framing: the body must be exactly one intact CBLK block. The
  // assembler throws ParseError on CRC/size damage; a second frame or
  // trailing bytes are rejected here.
  bin::FrameAssembler frames(ParseMode::Strict, nullptr, "rule table");
  frames.push(bytes.substr(kHeaderBytes));
  frames.finish();
  const std::optional<std::string_view> payload = frames.next();
  if (!payload) reject("missing rule block");
  if (frames.next() || frames.buffered() != 0) reject("trailing bytes after rule block");

  bin::PayloadCursor cur(*payload, kHeaderBytes + bin::kBlockHeaderBytes, "rule table");
  if (cur.get<std::uint8_t>() != kRulesTag) reject("unknown block tag");
  const std::uint32_t count = cur.get<std::uint32_t>();
  const std::size_t per_rule = 4 + 4 + 1 + 8 + 4 + 4;
  if (cur.remaining() != static_cast<std::size_t>(count) * per_rule)
    reject("rule count disagrees with block size");

  RuleTable table;
  table.rules.reserve(count);
  const auto max_code = static_cast<std::int32_t>(catalog.size());
  for (std::uint32_t i = 0; i < count; ++i) {
    Rule r;
    r.precursor = cur.get<std::int32_t>();
    r.target = cur.get<std::int32_t>();
    const auto scope = cur.get<std::uint8_t>();
    r.window = cur.get<std::int64_t>();
    r.support = cur.get<std::uint32_t>();
    r.precursor_count = cur.get<std::uint32_t>();
    const std::string at = " (rule " + std::to_string(i) + ")";
    if (r.precursor < 0 || r.precursor >= max_code) reject("precursor code out of catalog range" + at);
    if (r.target < 0 || r.target >= max_code) reject("target code out of catalog range" + at);
    if (scope > static_cast<std::uint8_t>(RuleScope::Machine)) reject("invalid scope" + at);
    r.scope = static_cast<RuleScope>(scope);
    if (r.window <= 0) reject("non-positive window" + at);
    if (r.precursor_count == 0) reject("zero precursor count" + at);
    if (r.support > r.precursor_count) reject("support exceeds precursor count" + at);
    table.rules.push_back(r);
  }
  if (!cur.at_end()) reject("trailing bytes in rule block");
  return table;
}

std::string describe(const RuleTable& table, const ras::Catalog& catalog) {
  std::ostringstream out;
  out << table.rules.size() << " rule(s)\n";
  for (std::size_t i = 0; i < table.rules.size(); ++i) {
    const Rule& r = table.rules[i];
    out << "  [" << i << "] " << catalog.info(r.precursor).name << " -> "
        << catalog.info(r.target).name << "  scope=" << to_string(r.scope)
        << " window=" << r.window / kUsecPerMin << "min"
        << " confidence=" << r.support << "/" << r.precursor_count << " ("
        << static_cast<int>(r.confidence() * 100.0 + 0.5) << "%)\n";
  }
  return out.str();
}

}  // namespace coral::predict
