#include "coral/ras/binary_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "coral/common/binary_frame.hpp"
#include "coral/common/error.hpp"
#include "coral/common/hugepage.hpp"
#include "coral/common/parallel.hpp"
#include "coral/common/storev3.hpp"
#include "coral/obs/obs.hpp"
#include "coral/ras/binary_stream.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CORAL_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace coral::ras {

namespace {

// The reference reader: the region walked front to back through the frame
// assembler, feeding the shared incremental decoder — the same classes the
// fleet session/wire path runs, which is what makes network ingest
// byte-identical to offline reads. Handles every damage shape and both
// format versions, and defines the exact error messages and lenient
// accounting the pooled fast path must reproduce.
RasLog read_region_sequential(std::string_view region, const Catalog& catalog,
                              ParseMode mode, const machine::MachineModel& machine,
                              IngestReport& rep, const bin::ZoneFilter* filter,
                              bin::BlockCounters& blocks, std::size_t reserve_div) {
  // Frame damage is tracked in a side report: one sample per damaged
  // stretch, while the caller-visible BinaryFrame *count* is computed in
  // finish() as the exact number of records lost (the dictionary carries
  // the total).
  IngestReport frames;
  bin::FrameAssembler assembler(mode, &frames, "binary RAS log");

  RasStreamDecoder decoder(catalog, mode, machine);
  // Pre-size from the declared total, capped by what the region could
  // physically hold so a corrupt count cannot force a huge allocation
  // (v3 blocks compress, so their floor is a few bytes per record).
  decoder.set_reserve_cap(region.size() / reserve_div);
  decoder.set_filter(filter);
  bin::walk_frames(assembler, region, [&](std::string_view payload, std::uint64_t offset) {
    decoder.on_payload(payload, offset);
  });
  RasLog log = decoder.finish(rep, frames);
  blocks = decoder.block_counters();
  return log;
}

/// A block the pooled reader decodes, and its slot of the output array:
/// records [begin, begin + room) of the pre-sized event vector. The room is
/// the block's declared count, read before its CRC is checked and capped at
/// kRasRecordsPerBlock, so a damaged count cannot inflate the allocation; a
/// CRC-valid block that declares more is a non-canonical shape. The worker
/// records how many records landed; the rest of the slot is a hole.
struct BlockSlot {
  const bin::FrameRef* frame = nullptr;
  std::size_t begin = 0;
  std::uint32_t room = 0;
  std::uint32_t written = 0;
};

/// The record count a 'C' payload declares right after the tag byte; 0 for
/// a payload too short to hold one.
std::uint32_t declared_count(const char* payload, std::uint32_t size) {
  std::uint32_t n = 0;
  if (size >= 1 + sizeof n) std::memcpy(&n, payload + 1, sizeof n);
  return n;
}

/// Give each block its slot, in block order; returns the summed rooms.
std::size_t assign_slots(std::vector<BlockSlot>& slots, const char* base) {
  std::size_t total = 0;
  for (BlockSlot& s : slots) {
    const char* payload = base + s.frame->offset + bin::kBlockHeaderBytes;
    s.begin = total;
    s.room = static_cast<std::uint32_t>(std::min<std::size_t>(
        declared_count(payload, s.frame->size), kRasRecordsPerBlock));
    total += s.room;
  }
  return total;
}

struct ChunkOut {
  IngestReport rep;
  std::uint64_t attempted = 0;
  std::size_t written = 0;  ///< records the chunk's blocks left in their slots
  bin::BlockCounters blocks;
  FatalColumns fatal;      ///< fatal gather from emit, log_index in slot positions
  bool sorted = true;      ///< chunk-local time order held at emit
  bool damaged = false;    ///< lenient CRC failure: whole read falls back
  bool reshaped = false;   ///< a block declared more records than its slot
  std::string error;       ///< strict: first error in block order
  bool has_error = false;
};

std::size_t chunk_count(std::size_t nblocks, par::ThreadPool& pool) {
  // 4 chunks per thread for load balance; a single-thread pool gets one.
  return pool.thread_count() <= 1
             ? 1
             : std::max<std::size_t>(1, std::min(nblocks, pool.thread_count() * 4));
}

/// Decode the slotted blocks across the pool: `decode_block(slot, out,
/// scratch)` decodes one block into its slot and returns false to stop the
/// chunk (after recording why in `out`). Chunks cover contiguous, ascending
/// block ranges.
template <typename DecodeBlock>
std::vector<ChunkOut> decode_chunks(std::vector<BlockSlot>& slots, par::ThreadPool& pool,
                                    const DecodeBlock& decode_block) {
  const std::size_t nblocks = slots.size();
  const std::size_t chunks = chunk_count(nblocks, pool);
  std::vector<ChunkOut> outs(chunks);
  par::parallel_for_chunks(
      chunks, 1,
      [&](std::size_t cb, std::size_t ce) {
        RasDecodeScratch scratch;
        for (std::size_t c = cb; c < ce; ++c) {
          ChunkOut& out = outs[c];
          for (std::size_t b = c * nblocks / chunks; b < (c + 1) * nblocks / chunks; ++b) {
            if (!decode_block(slots[b], out, scratch)) break;
            out.written += slots[b].written;
          }
          // The scratch is shared across this worker's chunks; snapshot its
          // emit bookkeeping into the chunk and reset for the next one.
          out.fatal = std::move(scratch.fatal);
          scratch.fatal = FatalColumns{};
          out.sorted = scratch.sorted;
          scratch.sorted = true;
          scratch.last_time = std::numeric_limits<std::int64_t>::min();
        }
      },
      &pool);
  return outs;
}

/// Whether the pooled result stands. The earliest chunk that stopped
/// decides, since each stopped at its first event in block order: a strict
/// error there is the sequential reader's first error, and an oversized
/// block or (lenient) CRC damage defers the whole read to the sequential
/// reader, the authority on both.
bool chunks_committed(const std::vector<ChunkOut>& outs) {
  for (const ChunkOut& out : outs) {
    if (out.reshaped || out.damaged) return false;
    if (out.has_error) throw ParseError(out.error);
  }
  return true;
}

/// Close the holes that rejected and exact-filtered records left in their
/// slots: every record behind a hole moves down, and (through `fatal`, whose
/// log_index values are slot positions in ascending order) gets its new
/// fatal log_index. An intact, unfiltered read fills every slot and moves
/// nothing.
void close_holes(std::vector<RasEvent>& events, const std::vector<BlockSlot>& slots,
                 std::size_t written, FatalColumns* fatal) {
  if (written == events.size()) return;
  std::size_t dst = 0;
  std::size_t fi = 0;
  for (const BlockSlot& s : slots) {
    const std::size_t shift = s.begin - dst;
    if (shift != 0) {
      for (std::size_t k = 0; k < s.written; ++k) events[dst + k] = events[s.begin + k];
    }
    if (fatal != nullptr) {
      for (; fi < fatal->size() && fatal->log_index[fi] < s.begin + s.written; ++fi) {
        fatal->log_index[fi] -= shift;
      }
    }
    dst += s.written;
  }
  events.resize(dst);
}

// The pooled v3 reader: parse the writer-canonical metadata prefix
// ('M' 'M' 'D' 'D' 'L' 'L') in order, rebuild the block directory from the
// 'S' segment footers, then fan the 'C' blocks out, each decoded straight
// into its slot of the log's event array. Under a predicate, blocks whose
// footer entry zone-rejects get no slot and are skipped without touching
// their payload bytes at all (the mmap zero-copy win) — so their CRCs are
// never checked either; blocks without a footer entry (an appender's
// unsealed tail) fall back to the in-block zone map. A v2 region, and any
// deviation from the canonical shape, defers to the sequential reader.
RasLog read_region_parallel_v3(std::string_view region, const Catalog& catalog,
                               ParseMode mode, const machine::MachineModel& machine,
                               IngestReport& rep, par::ThreadPool& pool,
                               const bin::ZoneFilter* filter, bin::BlockCounters& blocks,
                               std::size_t reserve_div) {
  const auto fall_back = [&] {
    blocks = bin::BlockCounters{};
    return read_region_sequential(region, catalog, mode, machine, rep, filter, blocks,
                                  reserve_div);
  };
  if (region.size() <= bin::kBlockHeaderBytes ||
      region[bin::kBlockHeaderBytes] != kRasMetaTag) {
    return fall_back();
  }
  std::vector<bin::FrameRef> frames;
  if (!bin::index_frames(region, frames)) return fall_back();
  const char* base = region.data();
  const auto tag_of = [&](const bin::FrameRef& f) {
    return base[f.offset + bin::kBlockHeaderBytes];
  };

  static constexpr char kPrefix[6] = {kRasMetaTag, kRasMetaTag, kRasDictTag,
                                      kRasDictTag, kRasLocTag,  kRasLocTag};
  if (frames.size() < 6) return fall_back();
  for (std::size_t i = 0; i < 6; ++i) {
    if (tag_of(frames[i]) != kPrefix[i]) return fall_back();
  }

  std::optional<RasDictionary> dict;
  std::optional<RasLocDict> locs;
  for (std::size_t i = 0; i < 6; ++i) {
    const bin::FrameRef& fr = frames[i];
    const char* payload = base + fr.offset + bin::kBlockHeaderBytes;
    if (bin::crc32(payload, fr.size) != fr.crc) {
      // The prefix blocks are the stream's first blocks, so a strict CRC
      // throw here is the sequential reader's first error too.
      if (mode == ParseMode::Strict) {
        throw ParseError("binary RAS log: block CRC mismatch at byte offset " +
                         std::to_string(fr.offset));
      }
      return fall_back();  // the redundant copy may still be intact
    }
    bin::PayloadCursor cur(std::string_view(payload, fr.size),
                           fr.offset + bin::kBlockHeaderBytes, "binary RAS log");
    try {
      const char tag = cur.get<char>();
      if (tag == kRasMetaTag) {
        bin::parse_store_meta(cur, machine.name(), mode);
      } else if (tag == kRasDictTag) {
        RasDictionary d = parse_ras_dictionary(cur, catalog, mode);
        if (!dict) dict = std::move(d);
      } else {
        RasLocDict l = parse_ras_loc_dict(cur, machine, mode);
        if (!locs) locs = std::move(l);
      }
    } catch (const Error&) {
      if (mode == ParseMode::Strict) throw;
      return fall_back();
    }
  }

  // Classify body frames and rebuild the directory from segment footers.
  std::vector<const bin::FrameRef*> cframes;
  std::vector<bin::SegmentEntry> dir;
  for (std::size_t i = 6; i < frames.size(); ++i) {
    const bin::FrameRef& fr = frames[i];
    const char t = tag_of(fr);
    if (t == kRasColumnTag) {
      cframes.push_back(&fr);
      continue;
    }
    if (t != kRasSegmentTag) return fall_back();
    const char* payload = base + fr.offset + bin::kBlockHeaderBytes;
    if (bin::crc32(payload, fr.size) != fr.crc) return fall_back();
    bin::PayloadCursor cur(std::string_view(payload, fr.size),
                           fr.offset + bin::kBlockHeaderBytes, "binary RAS log");
    try {
      cur.get<char>();  // tag
      bin::parse_segment_footer(cur, dir);
    } catch (const Error&) {
      return fall_back();
    }
  }

  // Plan: a footer-covered block that the zone map rejects is accounted for
  // here, from its footer entry (its declared records count as attempted,
  // so the strict total check and the lenient top-up stay exact), and gets
  // no slot. The offset directory only pays for itself under a predicate;
  // an unfiltered read never probes it, so skip the build.
  std::unordered_map<std::uint64_t, const bin::SegmentEntry*> dir_at;
  if (filter != nullptr) {
    dir_at.reserve(dir.size());
    for (const bin::SegmentEntry& e : dir) dir_at.emplace(e.offset, &e);
  }
  std::uint64_t skipped_records = 0;
  std::vector<BlockSlot> slots;
  slots.reserve(cframes.size());
  for (const bin::FrameRef* fr : cframes) {
    if (filter != nullptr) {
      const auto it = dir_at.find(fr->offset);
      if (it != dir_at.end() && !filter->may_match(it->second->zone)) {
        skipped_records += it->second->count;
        ++blocks.total;
        ++blocks.skipped;
        continue;
      }
    }
    slots.push_back(BlockSlot{fr});
  }
  const std::size_t room = assign_slots(slots, base);
  std::vector<RasEvent> events;
  mem::reserve_huge(events, room);
  events.resize(room);

  std::vector<ChunkOut> outs = decode_chunks(
      slots, pool, [&](BlockSlot& s, ChunkOut& out, RasDecodeScratch& scratch) {
        const bin::FrameRef& fr = *s.frame;
        const char* payload = base + fr.offset + bin::kBlockHeaderBytes;
        if (bin::crc32(payload, fr.size) != fr.crc) {
          // Strict mode records the sequential reader's error, lenient mode
          // marks the read for the fallback.
          if (mode == ParseMode::Strict) {
            out.has_error = true;
            out.error = "binary RAS log: block CRC mismatch at byte offset " +
                        std::to_string(fr.offset);
          } else {
            out.damaged = true;
          }
          return false;
        }
        if (declared_count(payload, fr.size) > s.room) {
          out.reshaped = true;
          return false;
        }
        bin::PayloadCursor cur(std::string_view(payload, fr.size),
                               fr.offset + bin::kBlockHeaderBytes, "binary RAS log");
        try {
          cur.get<char>();  // tag, known to be 'C'
          s.written = static_cast<std::uint32_t>(decode_ras_column_payload(
              cur, &*dict, &*locs, mode, filter, out.rep,
              RasBlockOut{.slot = events.data() + s.begin, .first = s.begin}, out.attempted,
              out.blocks, scratch));
        } catch (const Error& e) {
          if (mode == ParseMode::Strict) {
            out.has_error = true;
            out.error = e.what();
            return false;
          }
        }
        return true;
      });
  if (!chunks_committed(outs)) return fall_back();

  // Each chunk verified its own order; the seams between chunks are the
  // only unchecked pairs. The fatal gathers concatenate in block order.
  RasLog::TrustedParts parts;
  std::size_t written = 0;
  std::uint64_t attempted = skipped_records;
  for (const ChunkOut& out : outs) {
    parts.sorted = parts.sorted && out.sorted;
    written += out.written;
    rep.merge(out.rep);  // chunk order == offset order: samples stay sorted
    blocks.merge(out.blocks);
    attempted += out.attempted;
  }
  bin::check_declared_total(dict->total_records, attempted, mode, "binary RAS log",
                            "dictionary", rep);
  if (parts.sorted) {
    std::size_t nfatal = 0;
    for (const ChunkOut& out : outs) nfatal += out.fatal.size();
    parts.fatal.event_time.reserve(nfatal);
    parts.fatal.errcode.reserve(nfatal);
    parts.fatal.loc_key.reserve(nfatal);
    parts.fatal.log_index.reserve(nfatal);
    for (const ChunkOut& out : outs) {
      const FatalColumns& f = out.fatal;
      parts.fatal.event_time.insert(parts.fatal.event_time.end(), f.event_time.begin(),
                                    f.event_time.end());
      parts.fatal.errcode.insert(parts.fatal.errcode.end(), f.errcode.begin(),
                                 f.errcode.end());
      parts.fatal.loc_key.insert(parts.fatal.loc_key.end(), f.loc_key.begin(),
                                 f.loc_key.end());
      parts.fatal.log_index.insert(parts.fatal.log_index.end(), f.log_index.begin(),
                                   f.log_index.end());
    }
  }
  close_holes(events, slots, written, parts.sorted ? &parts.fatal : nullptr);
  if (parts.sorted) {
    std::size_t at = 0;
    for (std::size_t c = 0; c + 1 < outs.size() && parts.sorted; ++c) {
      at += outs[c].written;
      if (at > 0 && at < events.size() &&
          events[at].event_time < events[at - 1].event_time) {
        parts.sorted = false;
      }
    }
  }
  return RasLog(std::move(events), catalog, machine, std::move(parts));
}

std::string slurp(std::istream& in) {
  std::string buf;
  // Pre-size from the stream length when it is seekable (files, stringstreams).
  const auto pos = in.tellg();
  if (pos != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    in.seekg(pos);
    if (end != std::istream::pos_type(-1) && end > pos) {
      buf.reserve(static_cast<std::size_t>(end - pos));
    }
  }
  constexpr std::size_t kChunk = 1 << 20;
  for (;;) {
    const std::size_t old = buf.size();
    buf.resize(old + kChunk);
    in.read(buf.data() + old, static_cast<std::streamsize>(kChunk));
    const auto got = static_cast<std::size_t>(in.gcount());
    buf.resize(old + got);
    if (got < kChunk) break;
  }
  return buf;
}

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

// ---------------------------------------------------------------------------
// Read entry points

RasLog read_view(std::string_view buffer, const Catalog& catalog,
                 const ReadOptions& opts) {
  IngestReport local;
  IngestReport& rep = opts.report != nullptr ? *opts.report : local;
  const machine::MachineModel& machine =
      opts.machine != nullptr ? *opts.machine : machine::bgp_model();
  obs::Span span(opts.obs, "ingest.ras_binary");
  CORAL_OBS_COUNT(opts.obs, "ingest.ras_binary.bytes", buffer.size());

  const std::uint32_t version =
      bin::check_file_header(buffer.substr(0, bin::kFileHeaderBytes), kRasMagic,
                             "binary RAS log", opts.mode);
  // Lenient mode tolerates a damaged file header: the framed blocks are
  // self-locating, so recovery proceeds from whatever survives. Offsets in
  // reports and errors are relative to the end of the 8-byte header, as the
  // streaming reader always counted them.
  const std::string_view region =
      buffer.substr(std::min(buffer.size(), bin::kFileHeaderBytes));

  // Bound for the corrupt-declared-total allocation guard: v2 records are
  // fixed 24 bytes; v3 columns bottom out at 8 bytes per record before
  // compression, and compression is bounded by the block floor anyway.
  const std::size_t reserve_div = version == kRasVersion3 ? 8 : sizeof(PackedRecord);

  std::optional<bin::ZoneFilter> filter_store;
  const bin::ZoneFilter* filter = nullptr;
  if (!opts.predicate.unconstrained()) {
    filter_store.emplace(opts.predicate, machine.codec(), machine.midplane_count());
    filter = &*filter_store;
  }

  bin::BlockCounters blocks;
  // The indexed in-place path wins even on a single-thread pool (no per-block
  // payload copies), so any pool at all selects it.
  RasLog log = opts.pool != nullptr
                   ? read_region_parallel_v3(region, catalog, opts.mode, machine, rep,
                                             *opts.pool, filter, blocks, reserve_div)
                   : read_region_sequential(region, catalog, opts.mode, machine, rep,
                                            filter, blocks, reserve_div);

  CORAL_OBS_COUNT(opts.obs, "ingest.ras_binary.blocks_total", blocks.total);
  CORAL_OBS_COUNT(opts.obs, "ingest.ras_binary.blocks_decoded", blocks.decoded);
  CORAL_OBS_COUNT(opts.obs, "ingest.ras_binary.blocks_skipped", blocks.skipped);

  span.counts(rep.records_seen(), rep.records_ok());
  rep.report_malformed(opts.obs, "ingest.ras_binary");
  return log;
}

}  // namespace

void write_binary(std::ostream& out, const RasLog& log) {
  write_v2(out, log, nullptr);
}

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
  // Buffer the whole input once; frames are then indexed and decoded in
  // place, with no per-block payload copies. A string-backed stream already
  // holds a contiguous buffer — decode straight from its view instead of
  // copying tens of MB. Otherwise a seekable stream reveals its size up
  // front, so the buffer can be read in one pass into default-initialized
  // memory (std::string would zero-fill it first); anything else goes
  // through the chunked slurp.
  if (auto* sb = dynamic_cast<std::stringbuf*>(in.rdbuf())) {
    const auto pos = in.tellg();
    if (pos != std::istream::pos_type(-1)) {
      const std::string_view view = sb->view();
      const auto off = static_cast<std::size_t>(pos);
      if (off <= view.size()) {
        in.seekg(0, std::ios::end);
        return read_view(view.substr(off), catalog, opts);
      }
    }
  }
  const auto pos = in.tellg();
  if (pos != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    in.seekg(pos);
    if (end != std::istream::pos_type(-1) && end > pos) {
      const auto size = static_cast<std::size_t>(end - pos);
      const std::unique_ptr<char[]> mem(new char[size]);
      in.read(mem.get(), static_cast<std::streamsize>(size));
      if (static_cast<std::size_t>(in.gcount()) == size) {
        return read_view(std::string_view(mem.get(), size), catalog, opts);
      }
    }
  }
  const std::string buffer = slurp(in);
  return read_view(buffer, catalog, opts);
}

RasLog read_binary(std::istream& in, const Catalog& catalog, ParseMode mode,
                   IngestReport* report, obs::Collector* obs, par::ThreadPool* pool,
                   const machine::MachineModel& machine) {
  ReadOptions opts;
  opts.mode = mode;
  opts.report = report;
  opts.obs = obs;
  opts.pool = pool;
  opts.machine = &machine;
  return read_binary(in, catalog, opts);
}

RasLog read_binary_file(const std::string& path, const Catalog& catalog,
                        const ReadOptions& opts) {
#ifdef CORAL_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw Error("cannot open binary RAS log: " + path);
  struct ::stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw Error("cannot stat binary RAS log: " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return read_view(std::string_view{}, catalog, opts);
  }
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mapped != MAP_FAILED) {
    struct Unmap {
      void* p;
      std::size_t n;
      ~Unmap() { ::munmap(p, n); }
    } guard{mapped, size};
    return read_view(std::string_view(static_cast<const char*>(mapped), size), catalog,
                     opts);
  }
#endif
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open binary RAS log: " + path);
  return read_binary(in, catalog, opts);
}

}  // namespace coral::ras
