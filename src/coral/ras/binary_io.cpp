#include "coral/ras/binary_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <string_view>

#include "coral/common/binary_frame.hpp"
#include "coral/common/error.hpp"
#include "coral/common/storev3.hpp"
#include "coral/obs/obs.hpp"
#include "coral/ras/binary_stream.hpp"

namespace coral::ras {

namespace {

// ---------------------------------------------------------------------------
// Writers

template <typename T>
void append_raw(std::string& out, T v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof buf);
}

std::string build_dict_payload(const RasLog& log) {
  std::string p;
  p.push_back(kRasDictTag);
  const Catalog& catalog = log.catalog();
  append_raw(p, static_cast<std::uint32_t>(catalog.size()));
  for (const ErrcodeInfo& info : catalog.all()) {
    append_raw(p, static_cast<std::uint16_t>(info.name.size()));
    p.append(info.name);
  }
  append_raw(p, static_cast<std::uint64_t>(log.size()));
  return p;
}

void encode_v2_block(std::string& payload, const RasLog& log, std::size_t base,
                     std::size_t n) {
  payload.push_back(kRasRecordTag);
  append_raw(payload, static_cast<std::uint32_t>(n));
  for (std::size_t i = base; i < base + n; ++i) {
    const RasEvent& ev = log[i];
    PackedRecord rec;
    rec.time_usec = ev.event_time.usec();
    rec.packed_location = ev.location.packed();
    rec.dict_index = static_cast<std::uint32_t>(ev.errcode);
    rec.serial = ev.serial;
    rec.severity = static_cast<std::uint8_t>(ev.severity);
    payload.append(reinterpret_cast<const char*>(&rec), sizeof rec);
  }
}

void write_v2(std::ostream& out, const RasLog& log) {
  out.write(kRasMagic, sizeof kRasMagic);
  out.write(reinterpret_cast<const char*>(&kRasVersion), sizeof kRasVersion);

  // Dictionary: every catalog errcode name, indexed by ErrcodeId. Written
  // twice so one damaged frame cannot make every record undecodable.
  const std::string dict = build_dict_payload(log);
  std::string framed;
  bin::append_frame(framed, dict);
  bin::append_frame(framed, dict);
  out.write(framed.data(), static_cast<std::streamsize>(framed.size()));

  std::string payload;
  for (std::size_t base = 0; base < log.size(); base += kRasRecordsPerBlock) {
    payload.clear();
    encode_v2_block(payload, log, base, std::min(kRasRecordsPerBlock, log.size() - base));
    framed.clear();
    bin::append_frame(framed, payload);
    out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  }
}

/// The v3 location dictionary: the log's distinct packed location keys in
/// first-appearance order, and each event's index into them.
struct LocationIndex {
  std::vector<std::uint32_t> keys;
  std::vector<std::uint32_t> of_event;
};

/// Build the LocationIndex with one probe per event into a flat
/// open-addressing table: linear probing over power-of-two slots kept at
/// most half full, each slot the key and its index + 1 packed in a u64
/// (0 = empty). Growing the table rehashes the keys in order. The seed-42
/// Intrepid log names 44,546 distinct locations, 1 MiB of slots.
LocationIndex index_locations(const RasLog& log) {
  LocationIndex ix;
  ix.of_event.resize(log.size());
  std::vector<std::uint64_t> slots(std::size_t{1} << 10);
  unsigned shift = 64 - 10;  // keeps the hash's top log2(slots) bits
  const auto slot_of = [&](std::uint32_t key) -> std::uint64_t& {
    const std::size_t mask = slots.size() - 1;
    auto s = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
    while (slots[s] != 0 && static_cast<std::uint32_t>(slots[s] >> 32) != key) {
      s = (s + 1) & mask;
    }
    return slots[s];
  };
  for (std::size_t i = 0; i < log.size(); ++i) {
    const std::uint32_t key = log[i].location.packed();
    std::uint64_t& slot = slot_of(key);
    if (slot == 0) {
      ix.keys.push_back(key);
      slot = std::uint64_t{key} << 32 | ix.keys.size();
    }
    ix.of_event[i] = static_cast<std::uint32_t>(slot) - 1;
    if (ix.keys.size() * 2 > slots.size()) {
      slots.assign(slots.size() * 2, 0);
      --shift;
      for (std::size_t k = 0; k < ix.keys.size(); ++k) {
        slot_of(ix.keys[k]) = std::uint64_t{ix.keys[k]} << 32 | (k + 1);
      }
    }
  }
  return ix;
}

void write_v3(std::ostream& out, const RasLog& log, const WriteOptions& opts) {
  const machine::MachineModel& machine = log.machine();
  out.write(kRasMagic, sizeof kRasMagic);
  out.write(reinterpret_cast<const char*>(&kRasVersion3), sizeof kRasVersion3);

  const LocationIndex locations = index_locations(log);

  std::string meta_payload;
  meta_payload.push_back(kRasMetaTag);
  bin::append_store_meta(meta_payload,
                         bin::StoreMeta{std::string(machine.name()), std::string(kRasSchemaV3),
                                        static_cast<std::uint32_t>(kRasRecordsPerBlock), 0});
  const std::string dict_payload = build_dict_payload(log);
  std::string loc_payload;
  loc_payload.push_back(kRasLocTag);
  append_raw(loc_payload, static_cast<std::uint32_t>(locations.keys.size()));
  for (const std::uint32_t key : locations.keys) append_raw(loc_payload, key);

  std::string head;
  for (const std::string& payload : {meta_payload, dict_payload, loc_payload}) {
    bin::append_frame(head, payload);
    bin::append_frame(head, payload);
  }
  out.write(head.data(), static_cast<std::streamsize>(head.size()));

  bin::SegmentWriter segments(out, kRasSegmentTag, head.size(), opts.blocks_per_segment);
  std::string scratch;
  for (std::size_t base = 0; base < log.size(); base += kRasRecordsPerBlock) {
    segments.write_block(encode_ras_column_block(
        scratch, &log[base], std::min(kRasRecordsPerBlock, log.size() - base),
        locations.of_event.data() + base, machine.codec()));
  }
  segments.finish();
}

}  // namespace

void write_binary(std::ostream& out, const RasLog& log, const WriteOptions& opts) {
  if (opts.version == kRasVersion) {
    write_v2(out, log);
  } else if (opts.version == kRasVersion3) {
    write_v3(out, log, opts);
  } else {
    throw InvalidArgument("unsupported binary RAS log version " +
                          std::to_string(opts.version));
  }
}

RasLog read_binary(std::istream& in, const Catalog& catalog, const ReadOptions& opts) {
  IngestReport local;
  IngestReport& rep = opts.report != nullptr ? *opts.report : local;
  const machine::MachineModel& machine =
      opts.machine != nullptr ? *opts.machine : machine::bgp_model();
  obs::Span span(opts.obs, "ingest.ras_binary");
  // A seekable input (a file, a string stream) is counted up front; any
  // other stream once the walk has read it to its end.
  const std::optional<std::uint64_t> size = bin::bytes_left(in);
  if (size) CORAL_OBS_COUNT(opts.obs, "ingest.ras_binary.bytes", *size);

  // The framed input feeds the shared incremental decoder — the same front
  // door and decoder the fleet session runs, so network ingest is
  // byte-identical to this offline read by construction. Lenient mode
  // tolerates a damaged file header: the framed blocks are self-locating.
  // Offsets in reports and errors are relative to the end of the 8-byte
  // header. Frame damage is tracked in the input's side report: one sample
  // per damaged stretch, while the caller-visible BinaryFrame count is the
  // exact number of records lost (the dictionary carries the total).
  bin::FramedInput input(opts.mode, kRasMagic, "binary RAS log");
  const std::size_t header_bytes = input.read_header(in);

  std::optional<bin::ZoneFilter> filter_store;
  if (!opts.predicate.unconstrained()) {
    filter_store.emplace(opts.predicate, machine.codec(), machine.midplane_count());
  }
  RasStreamDecoder decoder(catalog, opts.mode, machine);
  if (filter_store) decoder.set_filter(&*filter_store);
  // Pre-size from the declared total, capped by what the rest of a seekable
  // stream could physically hold, so a corrupt count cannot force a huge
  // allocation: v2 records are a fixed 24 bytes, v3 columns bottom out at 8
  // bytes per record before compression.
  if (size) {
    decoder.set_reserve_cap((*size - header_bytes) /
                            (input.version() == kRasVersion3 ? 8 : sizeof(PackedRecord)));
  }
  const std::uint64_t walked =
      input.read_frames(in, [&](std::string_view payload, std::uint64_t offset) {
        decoder.on_payload(payload, offset);
      });
  if (!size) CORAL_OBS_COUNT(opts.obs, "ingest.ras_binary.bytes", header_bytes + walked);
  const bin::BlockCounters blocks = decoder.block_counters();
  RasLog log = decoder.finish(rep, input.damage());

  CORAL_OBS_COUNT(opts.obs, "ingest.ras_binary.blocks_total", blocks.total);
  CORAL_OBS_COUNT(opts.obs, "ingest.ras_binary.blocks_decoded", blocks.decoded);
  CORAL_OBS_COUNT(opts.obs, "ingest.ras_binary.blocks_skipped", blocks.skipped);

  span.counts(rep.records_seen(), rep.records_ok());
  rep.report_malformed(opts.obs, "ingest.ras_binary");
  return log;
}

RasLog read_binary_file(const std::string& path, const Catalog& catalog,
                        const ReadOptions& opts) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open binary RAS log: " + path);
  return read_binary(in, catalog, opts);
}

}  // namespace coral::ras
