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

std::string header_payload(const JobLog& log) {
  std::string payload;
  payload.push_back(kJobHeaderTag);
  append_raw(payload, static_cast<std::uint64_t>(log.size()));
  return payload;
}

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

  // Metadata blocks are all written twice: losing any single frame must not
  // orphan the record blocks that follow.
  std::string framed;
  for (int copy = 0; copy < 2; ++copy) {
    bin::append_frame(framed, header_payload(log));
    bin::append_frame(framed, table_payload(kJobExecTag, log.exec_files()));
    bin::append_frame(framed, table_payload(kJobUserTag, log.users()));
    bin::append_frame(framed, table_payload(kJobProjectTag, log.projects()));
  }
  out.write(framed.data(), static_cast<std::streamsize>(framed.size()));

  std::string payload;
  for (std::size_t base = 0; base < log.size(); base += kJobRecordsPerBlock) {
    const std::size_t n = std::min(kJobRecordsPerBlock, log.size() - base);
    payload.clear();
    payload.push_back(kJobRecordTag);
    append_raw(payload, static_cast<std::uint32_t>(n));
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
      append_raw(payload, rec);
    }
    framed.clear();
    bin::append_frame(framed, payload);
    out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
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

  // Metadata blocks are all written twice, exactly as in v2: losing any
  // single frame must not orphan the record blocks that follow.
  std::string head;
  for (const std::string& payload :
       {meta_payload, header_payload(log), table_payload(kJobExecTag, log.exec_files()),
        table_payload(kJobUserTag, log.users()),
        table_payload(kJobProjectTag, log.projects())}) {
    bin::append_frame(head, payload);
    bin::append_frame(head, payload);
  }
  out.write(head.data(), static_cast<std::streamsize>(head.size()));

  bin::SegmentWriter segments(out, kJobSegmentTag, head.size(), opts.blocks_per_segment);
  std::string payload, raw, framed;
  for (std::size_t base = 0; base < log.size(); base += kJobRecordsPerBlock) {
    const std::size_t n = std::min(kJobRecordsPerBlock, log.size() - base);
    payload.clear();
    encode_job_column_block(payload, log, base, n, opts.compress, raw);
    framed.clear();
    bin::append_frame(framed, payload);
    segments.write_block(framed);
  }
  segments.finish();
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

  char header[bin::kFileHeaderBytes] = {};
  in.read(header, sizeof header);
  const std::uint32_t version =
      bin::check_file_header(std::string_view(header, static_cast<std::size_t>(in.gcount())),
                             kJobMagic, "binary job log", opts.mode);

  std::optional<bin::ZoneFilter> filter_store;
  if (!opts.predicate.unconstrained()) {
    filter_store.emplace(opts.predicate, machine.codec(), machine.midplane_count());
  }

  // The frame walk feeds the shared incremental decoder — the same
  // assembler and decoder the fleet session/wire path runs, so network
  // ingest is byte-identical to this offline read by construction.
  IngestReport frames;
  bin::FrameAssembler assembler(opts.mode, &frames, "binary job log");
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
  bin::walk_frames(assembler, in, [&](std::string_view payload, std::uint64_t offset) {
    decoder.on_payload(payload, offset);
  });
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
