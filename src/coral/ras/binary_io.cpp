#include "coral/ras/binary_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <string_view>
#include <unordered_map>

#include "coral/common/binary_frame.hpp"
#include "coral/common/error.hpp"
#include "coral/common/parallel.hpp"
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

/// Frame blocks [block_begin, block_end) into per-block byte strings, fanned
/// over the pool when one is given. `encode` appends one block's complete
/// payload (tag through body); framing (size + CRC) is deterministic, so
/// parallel output is byte-identical to serial.
template <typename Encode>
void frame_blocks(std::vector<std::string>& framed, std::size_t block_begin,
                  std::size_t block_end, par::ThreadPool* pool, const Encode& encode) {
  const std::size_t nb = block_end - block_begin;
  framed.resize(nb);
  const std::size_t chunks =
      pool == nullptr || pool->thread_count() <= 1
          ? 1
          : std::max<std::size_t>(1, std::min(nb, pool->thread_count() * 4));
  par::parallel_for_chunks(
      chunks, 1,
      [&](std::size_t cb, std::size_t ce) {
        std::string payload;
        for (std::size_t c = cb; c < ce; ++c) {
          const std::size_t bb = block_begin + c * nb / chunks;
          const std::size_t be = block_begin + (c + 1) * nb / chunks;
          for (std::size_t b = bb; b < be; ++b) {
            payload.clear();
            encode(payload, b);
            std::string& out = framed[b - block_begin];
            out.clear();
            bin::append_frame(out, payload);
          }
        }
      },
      pool);
}

void write_v2(std::ostream& out, const RasLog& log, par::ThreadPool* pool) {
  out.write(kRasMagic, sizeof kRasMagic);
  out.write(reinterpret_cast<const char*>(&kRasVersion), sizeof kRasVersion);

  // Dictionary: every catalog errcode name, indexed by ErrcodeId. Written
  // twice so one damaged frame cannot make every record undecodable.
  const std::string dict = build_dict_payload(log);
  std::string head;
  bin::append_frame(head, dict);
  bin::append_frame(head, dict);
  out.write(head.data(), static_cast<std::streamsize>(head.size()));

  const std::size_t nblocks = (log.size() + kRasRecordsPerBlock - 1) / kRasRecordsPerBlock;
  // Encode in bounded batches so peak memory stays a slice of the file, not
  // a full copy of it.
  constexpr std::size_t kBatchBlocks = 4096;
  std::vector<std::string> framed;
  for (std::size_t batch = 0; batch < nblocks; batch += kBatchBlocks) {
    const std::size_t batch_end = std::min(nblocks, batch + kBatchBlocks);
    frame_blocks(framed, batch, batch_end, pool,
                 [&](std::string& payload, std::size_t b) {
                   const std::size_t base = b * kRasRecordsPerBlock;
                   encode_v2_block(payload, log, base,
                                   std::min(kRasRecordsPerBlock, log.size() - base));
                 });
    for (const std::string& f : framed) {
      out.write(f.data(), static_cast<std::streamsize>(f.size()));
    }
  }
}

void write_v3(std::ostream& out, const RasLog& log, const WriteOptions& opts) {
  const machine::MachineModel& machine = log.machine();
  out.write(kRasMagic, sizeof kRasMagic);
  out.write(reinterpret_cast<const char*>(&kRasVersion3), sizeof kRasVersion3);

  // Location dictionary: distinct packed keys in first-appearance order,
  // plus each event's index into it.
  std::vector<std::uint32_t> keys;
  std::vector<std::uint32_t> loc_idx(log.size());
  {
    std::unordered_map<std::uint32_t, std::uint32_t> index;
    for (std::size_t i = 0; i < log.size(); ++i) {
      const std::uint32_t key = log[i].location.packed();
      const auto [it, inserted] =
          index.try_emplace(key, static_cast<std::uint32_t>(keys.size()));
      if (inserted) keys.push_back(key);
      loc_idx[i] = it->second;
    }
  }

  std::string meta_payload;
  meta_payload.push_back(kRasMetaTag);
  bin::append_store_meta(
      meta_payload,
      bin::StoreMeta{std::string(machine.name()), std::string(kRasSchemaV3),
                     static_cast<std::uint32_t>(kRasRecordsPerBlock),
                     opts.compress ? bin::kStoreFlagCompressed : std::uint8_t{0}});
  const std::string dict_payload = build_dict_payload(log);
  std::string loc_payload;
  loc_payload.push_back(kRasLocTag);
  append_raw(loc_payload, static_cast<std::uint32_t>(keys.size()));
  for (const std::uint32_t key : keys) append_raw(loc_payload, key);

  std::string head;
  for (const std::string& payload : {meta_payload, dict_payload, loc_payload}) {
    bin::append_frame(head, payload);
    bin::append_frame(head, payload);
  }
  out.write(head.data(), static_cast<std::streamsize>(head.size()));

  bin::SegmentWriter segments(out, kRasSegmentTag, head.size(), opts.blocks_per_segment);
  const std::size_t nblocks = (log.size() + kRasRecordsPerBlock - 1) / kRasRecordsPerBlock;
  constexpr std::size_t kBatchBlocks = 4096;
  std::vector<std::string> framed;
  for (std::size_t batch = 0; batch < nblocks; batch += kBatchBlocks) {
    const std::size_t batch_end = std::min(nblocks, batch + kBatchBlocks);
    frame_blocks(framed, batch, batch_end, opts.pool,
                 [&](std::string& payload, std::size_t b) {
                   const std::size_t base = b * kRasRecordsPerBlock;
                   const std::size_t n =
                       std::min(kRasRecordsPerBlock, log.size() - base);
                   // Per-thread scratch would save allocations, but encode is
                   // dominated by varint/LZ work; a local string is simpler.
                   std::string raw;
                   encode_ras_column_block(payload, &log[base], n,
                                           loc_idx.data() + base, opts.compress,
                                           machine.codec(), raw);
                 });
    for (const std::string& f : framed) segments.write_block(f);
  }
  segments.finish();
}

}  // namespace

void write_binary(std::ostream& out, const RasLog& log, const WriteOptions& opts) {
  if (opts.version == kRasVersion) {
    write_v2(out, log, opts.pool);
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
