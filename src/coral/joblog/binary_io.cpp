#include "coral/joblog/binary_io.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>

#include "coral/common/binary_frame.hpp"
#include "coral/common/error.hpp"
#include "coral/common/storev3.hpp"
#include "coral/joblog/binary_stream.hpp"
#include "coral/obs/obs.hpp"

namespace coral::joblog {

namespace {

template <class T>
void append_raw(std::string& out, T v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof buf);
}

void write_table(bin::BlockWriter& w, char tag, const std::vector<std::string>& table) {
  w.put(tag);
  w.put(static_cast<std::uint32_t>(table.size()));
  for (const std::string& s : table) w.put_string(s);
  w.flush();
}

/// The same bytes write_table frames, as a payload string — the v3 head is
/// assembled in memory so segment-footer offsets can be tracked.
std::string table_payload(char tag, const std::vector<std::string>& table) {
  std::string payload;
  payload.push_back(tag);
  append_raw(payload, static_cast<std::uint32_t>(table.size()));
  for (const std::string& s : table) {
    append_raw(payload, static_cast<std::uint16_t>(s.size()));
    payload.append(s);
  }
  return payload;
}

void write_v2(std::ostream& out, const JobLog& log) {
  out.write(kJobMagic, sizeof kJobMagic);
  out.write(reinterpret_cast<const char*>(&kJobVersion), sizeof kJobVersion);

  bin::BlockWriter w(out);
  // Metadata blocks are all written twice: losing any single frame must not
  // orphan the record blocks that follow.
  for (int copy = 0; copy < 2; ++copy) {
    w.put(kJobHeaderTag);
    w.put(static_cast<std::uint64_t>(log.size()));
    w.flush();
    write_table(w, kJobExecTag, log.exec_files());
    write_table(w, kJobUserTag, log.users());
    write_table(w, kJobProjectTag, log.projects());
  }

  for (std::size_t base = 0; base < log.size(); base += kJobRecordsPerBlock) {
    const std::size_t n = std::min(kJobRecordsPerBlock, log.size() - base);
    w.put(kJobRecordTag);
    w.put(static_cast<std::uint32_t>(n));
    for (std::size_t i = base; i < base + n; ++i) {
      const JobRecord& j = log[i];
      PackedJob rec;
      rec.job_id = j.job_id;
      rec.exec = j.exec_id;
      rec.user = j.user_id;
      rec.project = j.project_id;
      rec.queue_usec = j.queue_time.usec();
      rec.start_usec = j.start_time.usec();
      rec.end_usec = j.end_time.usec();
      rec.first_midplane = j.partition.first_midplane();
      rec.midplane_count = j.partition.midplane_count();
      rec.exit_code = j.exit_code;
      w.append(&rec, sizeof rec);
    }
    w.flush();
  }
}

void write_v3(std::ostream& out, const JobLog& log, const WriteOptions& opts) {
  const machine::MachineModel& machine = log.machine();
  out.write(kJobMagic, sizeof kJobMagic);
  out.write(reinterpret_cast<const char*>(&kJobVersion3), sizeof kJobVersion3);

  std::string meta_payload;
  meta_payload.push_back(kJobMetaTag);
  bin::append_store_meta(
      meta_payload,
      bin::StoreMeta{std::string(machine.name()), std::string(kJobSchemaV3),
                     static_cast<std::uint32_t>(kJobRecordsPerBlock),
                     opts.compress ? bin::kStoreFlagCompressed : std::uint8_t{0}});
  std::string header_payload;
  header_payload.push_back(kJobHeaderTag);
  append_raw(header_payload, static_cast<std::uint64_t>(log.size()));

  // Metadata blocks are all written twice, exactly as in v2: losing any
  // single frame must not orphan the record blocks that follow.
  std::string head;
  bin::append_frame(head, meta_payload);
  bin::append_frame(head, meta_payload);
  bin::append_frame(head, header_payload);
  bin::append_frame(head, header_payload);
  for (const auto& [tag, table] :
       {std::pair<char, const std::vector<std::string>&>{kJobExecTag, log.exec_files()},
        {kJobUserTag, log.users()},
        {kJobProjectTag, log.projects()}}) {
    const std::string payload = table_payload(tag, table);
    bin::append_frame(head, payload);
    bin::append_frame(head, payload);
  }
  out.write(head.data(), static_cast<std::streamsize>(head.size()));

  // Offsets in segment footers count from the end of the 8-byte file
  // header, like every other offset the readers report.
  std::uint64_t offset = head.size();
  const std::size_t bps = std::max<std::size_t>(1, opts.blocks_per_segment);
  std::vector<bin::SegmentEntry> seg;
  seg.reserve(bps);
  const auto flush_segment = [&] {
    std::string footer;
    footer.push_back(kJobSegmentTag);
    bin::append_segment_footer(footer, seg);
    std::string framed_footer;
    bin::append_frame(framed_footer, footer);
    out.write(framed_footer.data(), static_cast<std::streamsize>(framed_footer.size()));
    offset += framed_footer.size();
    seg.clear();
  };

  std::string payload, raw, framed;
  for (std::size_t base = 0; base < log.size(); base += kJobRecordsPerBlock) {
    const std::size_t n = std::min(kJobRecordsPerBlock, log.size() - base);
    payload.clear();
    encode_job_column_block(payload, log, base, n, opts.compress, raw);
    framed.clear();
    bin::append_frame(framed, payload);
    out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
    // The footer repeats the block's count and zone map; both sit at fixed
    // offsets in the payload just framed.
    bin::SegmentEntry entry;
    entry.offset = offset;
    std::uint32_t count = 0;
    std::memcpy(&count, framed.data() + bin::kBlockHeaderBytes + 1, sizeof count);
    entry.count = count;
    std::size_t pos = 0;
    bin::read_zone_map(
        std::string_view(framed).substr(bin::kBlockHeaderBytes + 1 + sizeof count), pos,
        entry.zone);
    seg.push_back(entry);
    offset += framed.size();
    if (seg.size() >= bps) flush_segment();
  }
  if (!seg.empty()) flush_segment();
}

}  // namespace

void write_binary(std::ostream& out, const JobLog& log) { write_v2(out, log); }

void write_binary(std::ostream& out, const JobLog& log, const WriteOptions& opts) {
  if (opts.version == kJobVersion) {
    write_v2(out, log);
  } else if (opts.version == kJobVersion3) {
    write_v3(out, log, opts);
  } else {
    throw InvalidArgument("unsupported binary job log version " +
                          std::to_string(opts.version));
  }
}

JobLog read_binary(std::istream& in, const ReadOptions& opts) {
  IngestReport local;
  IngestReport& rep = opts.report != nullptr ? *opts.report : local;
  const machine::MachineModel& machine =
      opts.machine != nullptr ? *opts.machine : machine::bgp_model();
  obs::Span span(opts.obs, "ingest.job_binary");

  char header[8] = {};
  in.read(header, sizeof header);
  std::uint32_t version = 0;
  std::memcpy(&version, header + sizeof kJobMagic, sizeof version);
  if (opts.mode == ParseMode::Strict) {
    if (!in || std::memcmp(header, kJobMagic, sizeof kJobMagic) != 0) {
      throw ParseError("not a binary job log (bad magic)");
    }
    if (version != kJobVersion && version != kJobVersion3) {
      throw ParseError("unsupported binary job log version " + std::to_string(version));
    }
  }

  std::optional<bin::ZoneFilter> filter_store;
  if (!opts.predicate.unconstrained()) {
    filter_store.emplace(opts.predicate, machine.codec(), machine.midplane_count());
  }

  // The recovering BlockReader feeds the shared incremental decoder — the
  // same class the fleet session/wire path runs, so network ingest is
  // byte-identical to this offline read by construction.
  IngestReport frames;
  bin::BlockReader blocks(in, opts.mode, &frames, "binary job log");
  JobStreamDecoder decoder(opts.mode, machine);
  if (filter_store) decoder.set_filter(&*filter_store);
  // Pre-size from the declared total, capped by what the rest of a seekable
  // stream could physically hold, so a corrupt count cannot force a huge
  // allocation: v2 records are a fixed 56 bytes, v3 column blocks spend at
  // least one byte on each of a record's ten fields before compression.
  if (const auto pos = in.tellg(); pos != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    in.seekg(pos);
    if (end != std::istream::pos_type(-1) && end > pos) {
      const std::size_t floor = version == kJobVersion ? sizeof(PackedJob) : 10;
      decoder.set_reserve_cap(static_cast<std::uint64_t>(end - pos) / floor);
    }
  }
  std::string payload;
  while (blocks.next(payload)) {
    decoder.on_payload(payload, blocks.block_offset() + bin::kBlockHeaderBytes);
  }
  const bin::BlockCounters counters = decoder.block_counters();
  JobLog log = decoder.finish(rep, frames);

  CORAL_OBS_COUNT(opts.obs, "ingest.job_binary.blocks_total", counters.total);
  CORAL_OBS_COUNT(opts.obs, "ingest.job_binary.blocks_decoded", counters.decoded);
  CORAL_OBS_COUNT(opts.obs, "ingest.job_binary.blocks_skipped", counters.skipped);

  span.counts(rep.records_seen(), rep.records_ok());
  rep.report_malformed(opts.obs, "ingest.job_binary");
  return log;
}

JobLog read_binary(std::istream& in, ParseMode mode, IngestReport* report,
                   obs::Collector* obs, const machine::MachineModel& machine) {
  ReadOptions opts;
  opts.mode = mode;
  opts.report = report;
  opts.obs = obs;
  opts.machine = &machine;
  return read_binary(in, opts);
}

}  // namespace coral::joblog
