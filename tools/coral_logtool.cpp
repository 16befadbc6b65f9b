// coral_logtool: inspect, convert and verify binary RAS / job log stores.
//
//   coral_logtool info <file>                header, block census, sizes
//   coral_logtool convert <in> <out> [--v2|--v3] [--lenient]
//   coral_logtool verify <a> <b> [--lenient] record-for-record equality
//   coral_logtool gen <ras-out> <jobs-out> [--v2|--v3]  small synthetic pair
//   coral_logtool mine <ras> <jobs> <rules-out>         mine correlation rules
//   coral_logtool predict <rules> <ras>                 replay rules over a log
//
// The log kind (RAS vs job) is auto-detected from the file magic; the
// machine model comes from a v3 'M' meta block when one is present
// (resolved through machine::find_model), else the reference BG/P.
// RAS errcode names resolve against the built-in Intrepid catalog.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "coral/common/binary_frame.hpp"
#include "coral/common/error.hpp"
#include "coral/common/storev3.hpp"
#include "coral/fleet/fingerprint.hpp"
#include "coral/joblog/binary_io.hpp"
#include "coral/joblog/binary_stream.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/machine/model.hpp"
#include "coral/predict/evaluate.hpp"
#include "coral/predict/miner.hpp"
#include "coral/predict/predictor.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/ras/binary_stream.hpp"
#include "coral/ras/catalog.hpp"
#include "coral/synth/intrepid.hpp"

namespace {

using namespace coral;

enum class Kind { Ras, Job };

struct FileInfo {
  Kind kind = Kind::Ras;
  std::uint32_t version = 0;
  std::string data;  ///< whole file
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: coral_logtool info <file>\n"
               "       coral_logtool convert <in> <out> [--v2|--v3] [--lenient]\n"
               "       coral_logtool verify <a> <b> [--lenient]\n"
               "       coral_logtool gen <ras-out> <jobs-out> [--v2|--v3]\n"
               "       coral_logtool mine <ras> <jobs> <rules-out> [--lenient]\n"
               "           [--window-hours=H] [--min-support=N] [--min-confidence=C]\n"
               "       coral_logtool predict <rules> <ras> [--lenient]\n");
  std::exit(2);
}

FileInfo load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  FileInfo f;
  f.data = std::move(buf).str();
  if (f.data.size() < 8) throw ParseError(path + ": too short for a log header");
  if (std::memcmp(f.data.data(), ras::kRasMagic, 4) == 0) {
    f.kind = Kind::Ras;
  } else if (std::memcmp(f.data.data(), joblog::kJobMagic, 4) == 0) {
    f.kind = Kind::Job;
  } else {
    throw ParseError(path + ": not a coral binary log (bad magic)");
  }
  std::memcpy(&f.version, f.data.data() + 4, sizeof f.version);
  return f;
}

/// Walk the file's frames (lenient: damage is skipped, not reported),
/// handing each intact payload to `on_payload`.
void walk_payloads(const FileInfo& f, const std::function<void(std::string_view)>& on_payload) {
  bin::FramedInput input(ParseMode::Lenient,
                         f.kind == Kind::Ras ? ras::kRasMagic : joblog::kJobMagic, "binary log");
  const bin::PayloadSink sink = [&](std::string_view payload, std::uint64_t) {
    on_payload(payload);
  };
  input.push(f.data, sink);
  input.finish(sink);
}

/// Keep the first v3 'M' meta of a walk (frame payloads are never empty).
void take_meta(std::string_view payload, std::optional<bin::StoreMeta>& meta) {
  if (meta || payload[0] != 'M') return;
  bin::PayloadCursor cur(payload, 0, "binary log");
  cur.get<char>();
  meta = bin::parse_store_meta(cur);
}

std::optional<bin::StoreMeta> peek_meta(const FileInfo& f) {
  std::optional<bin::StoreMeta> meta;
  walk_payloads(f, [&](std::string_view payload) { take_meta(payload, meta); });
  return meta;
}

const machine::MachineModel& resolve_machine(const FileInfo& f) {
  if (const auto meta = peek_meta(f)) {
    if (const machine::MachineModel* m = machine::find_model(meta->machine)) return *m;
    std::fprintf(stderr, "warning: unknown machine '%s', using %s\n",
                 meta->machine.c_str(), std::string(machine::bgp_model().name()).c_str());
  }
  return machine::bgp_model();
}

struct Loaded {
  Kind kind;
  std::optional<ras::RasLog> ras;
  std::optional<joblog::JobLog> jobs;
};

Loaded read_log(const FileInfo& f, ParseMode mode) {
  Loaded out{f.kind, std::nullopt, std::nullopt};
  const machine::MachineModel& machine = resolve_machine(f);
  std::istringstream in(f.data);
  if (f.kind == Kind::Ras) {
    ras::ReadOptions opts;
    opts.mode = mode;
    opts.machine = &machine;
    out.ras = ras::read_binary(in, ras::Catalog::instance(), opts);
  } else {
    joblog::ReadOptions opts;
    opts.mode = mode;
    opts.machine = &machine;
    out.jobs = joblog::read_binary(in, opts);
  }
  return out;
}

int cmd_info(const std::string& path) {
  const FileInfo f = load(path);
  std::printf("file:      %s (%zu bytes)\n", path.c_str(), f.data.size());
  std::printf("kind:      %s log\n", f.kind == Kind::Ras ? "RAS" : "job");
  std::printf("version:   %u\n", f.version);

  // Block census: one pass over the frames, counting payload tags.
  std::optional<bin::StoreMeta> meta;
  std::uint64_t frames = 0, records = 0, lz_blocks = 0, raw_blocks = 0;
  std::map<char, std::uint64_t> tags;
  std::optional<std::uint64_t> declared;
  walk_payloads(f, [&](std::string_view payload) {
    ++frames;
    take_meta(payload, meta);
    const char tag = payload[0];
    ++tags[tag];
    try {
      bin::PayloadCursor cur(payload, 0, "binary log");
      cur.get<char>();
      if (tag == 'C') {
        const auto n = cur.get<std::uint32_t>();
        records += n;
        cur.take(bin::kZoneMapBytes);
        const auto codec = cur.get<std::uint8_t>();
        (codec == bin::kCodecLz ? lz_blocks : raw_blocks) += 1;
      } else if (tag == 'R') {
        records += cur.get<std::uint32_t>();
      } else if (tag == 'H' && !declared) {
        declared = cur.get<std::uint64_t>();
      } else if (tag == 'D' && !declared) {
        // RAS dictionary: names, then the declared total at the tail.
        const auto n = cur.get<std::uint32_t>();
        for (std::uint32_t i = 0; i < n; ++i) cur.take(cur.get<std::uint16_t>());
        declared = cur.get<std::uint64_t>();
      }
    } catch (const Error&) {
      // census only; a malformed payload still counts its tag
    }
  });
  if (meta) {
    std::printf("machine:   %s\n", meta->machine.c_str());
    std::printf("schema:    %s\n", meta->schema.c_str());
    std::printf("block:     %u records/block%s\n", meta->records_per_block,
                (meta->flags & bin::kStoreFlagCompressed) ? ", compressed" : "");
  }
  std::printf("frames:    %llu\n", (unsigned long long)frames);
  std::string census;
  for (const auto& [tag, n] : tags) {
    census += census.empty() ? "" : ", ";
    census += "'";
    census += tag;
    census += "' x " + std::to_string(n);
  }
  std::printf("blocks:    %s\n", census.c_str());
  if (declared) std::printf("declared:  %llu records\n", (unsigned long long)*declared);
  std::printf("records:   %llu in record blocks\n", (unsigned long long)records);
  if (lz_blocks + raw_blocks > 0) {
    std::printf("codec:     %llu LZ blocks, %llu raw blocks\n",
                (unsigned long long)lz_blocks, (unsigned long long)raw_blocks);
    std::printf("bytes/rec: %.2f\n",
                records ? (double)f.data.size() / (double)records : 0.0);
  }
  return 0;
}

int cmd_convert(const std::string& in_path, const std::string& out_path,
                std::uint32_t version, ParseMode mode) {
  const FileInfo f = load(in_path);
  const Loaded log = read_log(f, mode);
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot open " + out_path + " for writing");
  if (log.kind == Kind::Ras) {
    ras::write_binary(out, *log.ras, {.version = version});
  } else {
    joblog::write_binary(out, *log.jobs, {.version = version});
  }
  out.flush();
  if (!out) throw Error("short write to " + out_path);
  const auto out_size = static_cast<std::uint64_t>(out.tellp());
  std::printf("%s (v%u, %zu bytes) -> %s (v%u, %llu bytes), ratio %.2f\n",
              in_path.c_str(), f.version, f.data.size(), out_path.c_str(), version,
              (unsigned long long)out_size,
              out_size ? (double)f.data.size() / (double)out_size : 0.0);
  return 0;
}

int cmd_gen(const std::string& ras_path, const std::string& jobs_path,
            std::uint32_t version) {
  // A small calibrated scenario — enough records to exercise every block
  // kind without slowing a CI smoke stage down.
  const synth::SynthResult data = synth::generate(synth::small_scenario(7, 5));
  std::ofstream ras_out(ras_path, std::ios::binary | std::ios::trunc);
  std::ofstream job_out(jobs_path, std::ios::binary | std::ios::trunc);
  if (!ras_out || !job_out) throw Error("cannot open output files");
  ras::write_binary(ras_out, data.ras, {.version = version});
  joblog::write_binary(job_out, data.jobs, {.version = version});
  ras_out.flush();
  job_out.flush();
  if (!ras_out || !job_out) throw Error("short write generating logs");
  std::printf("%s: %zu RAS records (v%u)\n%s: %zu jobs (v%u)\n", ras_path.c_str(),
              data.ras.size(), version, jobs_path.c_str(), data.jobs.size(), version);
  return 0;
}

int cmd_verify(const std::string& a_path, const std::string& b_path, ParseMode mode) {
  const FileInfo fa = load(a_path);
  const FileInfo fb = load(b_path);
  if (fa.kind != fb.kind) {
    std::fprintf(stderr, "verify: %s is a %s log but %s is a %s log\n", a_path.c_str(),
                 fa.kind == Kind::Ras ? "RAS" : "job", b_path.c_str(),
                 fb.kind == Kind::Ras ? "RAS" : "job");
    return 1;
  }
  const Loaded a = read_log(fa, mode);
  const Loaded b = read_log(fb, mode);
  // log_fingerprint folds every record field of both logs in order; pad the
  // absent side with an empty log of the right shape.
  const ras::RasLog empty_ras({}, ras::Catalog::instance(), machine::bgp_model());
  const joblog::JobLog empty_jobs(machine::bgp_model());
  const std::uint64_t ha = fleet::log_fingerprint(a.ras ? *a.ras : empty_ras,
                                                  a.jobs ? *a.jobs : empty_jobs);
  const std::uint64_t hb = fleet::log_fingerprint(b.ras ? *b.ras : empty_ras,
                                                  b.jobs ? *b.jobs : empty_jobs);
  const std::uint64_t na = a.ras ? a.ras->size() : a.jobs->size();
  const std::uint64_t nb = b.ras ? b.ras->size() : b.jobs->size();
  std::printf("%s: %llu records, fingerprint %016llx\n", a_path.c_str(),
              (unsigned long long)na, (unsigned long long)ha);
  std::printf("%s: %llu records, fingerprint %016llx\n", b_path.c_str(),
              (unsigned long long)nb, (unsigned long long)hb);
  if (ha != hb || na != nb) {
    std::printf("verify: MISMATCH\n");
    return 1;
  }
  std::printf("verify: OK\n");
  return 0;
}

int cmd_mine(const std::string& ras_path, const std::string& jobs_path,
             const std::string& out_path, ParseMode mode,
             const predict::MinerConfig& miner) {
  const FileInfo fr = load(ras_path);
  const FileInfo fj = load(jobs_path);
  if (fr.kind != Kind::Ras) throw Error(ras_path + " is not a RAS log");
  if (fj.kind != Kind::Job) throw Error(jobs_path + " is not a job log");
  const Loaded ras = read_log(fr, mode);
  const Loaded jobs = read_log(fj, mode);
  Context ctx;
  ctx.with_machine(resolve_machine(fr));
  const core::CoAnalysisResult analysis =
      core::run_coanalysis(*ras.ras, *jobs.jobs, {}, ctx);
  const predict::RuleTable table =
      predict::mine_rules(analysis, *jobs.jobs, miner, ctx);
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot open " + out_path + " for writing");
  const std::string bytes = table.serialize();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw Error("short write to " + out_path);
  std::printf("%s", predict::describe(table, ras::Catalog::instance()).c_str());
  std::printf("%zu rules -> %s (%zu bytes)\n", table.size(), out_path.c_str(),
              bytes.size());
  return 0;
}

int cmd_predict(const std::string& rules_path, const std::string& ras_path,
                ParseMode mode) {
  std::ifstream rin(rules_path, std::ios::binary);
  if (!rin) throw Error("cannot open " + rules_path);
  std::ostringstream rbuf;
  rbuf << rin.rdbuf();
  const predict::RuleTable table = predict::RuleTable::deserialize(std::move(rbuf).str());
  const FileInfo fr = load(ras_path);
  if (fr.kind != Kind::Ras) throw Error(ras_path + " is not a RAS log");
  const Loaded ras = read_log(fr, mode);
  const std::vector<predict::Prediction> preds = predict::replay(table, *ras.ras);
  // Replay again through a visible Predictor for the hit/suppress ledger
  // (replay() itself only returns the prediction list).
  predict::Predictor p(table, ras.ras->machine());
  for (const ras::RasEvent& ev : ras.ras->events()) p.on_record(ev);
  std::printf("rules:        %zu\n", table.size());
  std::printf("records:      %zu\n", ras.ras->size());
  std::printf("predictions:  %zu issued, %llu suppressed (in-window re-fires)\n",
              preds.size(), (unsigned long long)p.suppressed());
  std::printf("hits:         %llu predictions saw their target arrive in-window\n",
              (unsigned long long)p.hits());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) usage();
    const std::string cmd = args[0];
    ParseMode mode = ParseMode::Strict;
    std::uint32_t version = 3;
    coral::predict::MinerConfig miner;
    std::vector<std::string> pos;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--lenient") {
        mode = ParseMode::Lenient;
      } else if (args[i] == "--v2") {
        version = 2;
      } else if (args[i] == "--v3") {
        version = 3;
      } else if (args[i].rfind("--window-hours=", 0) == 0) {
        miner.window = static_cast<coral::Usec>(
            std::stod(args[i].substr(15)) * coral::kUsecPerHour);
      } else if (args[i].rfind("--min-support=", 0) == 0) {
        miner.min_support = static_cast<std::uint32_t>(std::stoul(args[i].substr(14)));
      } else if (args[i].rfind("--min-confidence=", 0) == 0) {
        miner.min_confidence = std::stod(args[i].substr(17));
      } else if (!args[i].empty() && args[i][0] == '-') {
        usage();
      } else {
        pos.push_back(args[i]);
      }
    }
    if (cmd == "info" && pos.size() == 1) return cmd_info(pos[0]);
    if (cmd == "convert" && pos.size() == 2) {
      return cmd_convert(pos[0], pos[1], version, mode);
    }
    if (cmd == "verify" && pos.size() == 2) return cmd_verify(pos[0], pos[1], mode);
    if (cmd == "gen" && pos.size() == 2) return cmd_gen(pos[0], pos[1], version);
    if (cmd == "mine" && pos.size() == 3) {
      return cmd_mine(pos[0], pos[1], pos[2], mode, miner);
    }
    if (cmd == "predict" && pos.size() == 2) return cmd_predict(pos[0], pos[1], mode);
    usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coral_logtool: %s\n", e.what());
    return 1;
  }
}
