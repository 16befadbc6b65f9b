#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>
#include <utility>

#include "coral/common/error.hpp"
#include "coral/common/hugepage.hpp"
#include "coral/common/strings.hpp"
#include "coral/obs/obs.hpp"
#include "coral/sched/policy.hpp"
#include "coral/sched/pool.hpp"
#include "coral/synth/scenario.hpp"

namespace coral::synth {

namespace {

using bgp::MidplaneId;
using machine::MidplaneRange;
using bgp::Partition;
using fault::Manifestation;
using fault::OccupancyView;
using fault::StormModel;
using fault::SystemFaultProcess;
using fault::TaggedEvent;
using fault::Trigger;
using fault::TriggerClass;
using ras::Catalog;
using ras::ErrcodeId;
using ras::ErrcodeInfo;
using ras::FaultNature;
using ras::JobImpact;

/// A job waiting in the Cobalt queue.
struct QueuedJob {
  std::int64_t job_id = 0;
  std::int32_t app = 0;
  TimePoint queue_time;
  int consec_fails = 0;                     ///< consecutive prior interruptions
  std::optional<Partition> prev_partition;  ///< resubmission affinity
};

/// A job currently running on the machine.
struct ActiveJob {
  bool active = false;
  std::int64_t job_id = 0;
  std::int32_t app = 0;
  TimePoint queue_time;
  TimePoint start;
  TimePoint planned_end;
  Partition part;
  std::uint32_t version = 0;  ///< invalidates stale JobEnd events
  int consec_fails = 0;
};

/// An unrepaired persistent system fault.
struct ActivePersistentFault {
  bgp::Location location;
  ErrcodeId code = 0;
  TimePoint until;  ///< repair completion time
  std::int32_t truth_id = -1;
};

enum class EventKind : std::uint8_t {
  JobEnd,       ///< natural completion (versioned)
  Interrupt,    ///< scheduled interruption of a running job (versioned)
  Resubmit,     ///< user resubmits an interrupted app
  FaultTrigger, ///< next system-fault candidate
  DiagRelease,  ///< release a diagnostics hold
};

struct SimEvent {
  TimePoint t;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::JobEnd;
  // JobEnd / Interrupt:
  std::size_t slot = 0;
  std::uint32_t version = 0;
  ErrcodeId code = 0;
  std::int32_t truth_id = -1;
  bool count_new_manifestation = false;  ///< emit a new storm at this time
  // FaultTrigger:
  TriggerClass trigger_class = TriggerClass::Interrupting;
  // Resubmit:
  std::int32_t app = -1;
  int consec_fails = 0;
  std::optional<Partition> prev_partition;
  // DiagRelease:
  std::optional<Partition> hold;
};

struct EventOrder {
  bool operator()(const SimEvent& a, const SimEvent& b) const {
    if (a.t != b.t) return a.t > b.t;  // min-heap
    return a.seq > b.seq;
  }
};

class Simulation {
 public:
  Simulation(const ScenarioConfig& config, const Context& ctx)
      : config_(config),
        obs_(ctx.obs()),
        catalog_(&ctx.catalog()),
        machine_(config.machine),
        n_midplanes_(machine_->midplane_count()),
        codec_(machine_->codec()),
        zones_(machine_->placement_zones()),
        master_rng_(ctx.derive_seed(config.seed)),
        sim_rng_(master_rng_.split()),
        storm_rng_(master_rng_.split()),
        noise_rng_(master_rng_.split()),
        process_(config.faults, master_rng_.split(), *catalog_, *machine_),
        storm_(config.storm, *catalog_, *machine_),
        placement_(*machine_, config.sched),
        pool_(*machine_),
        view_(*machine_),
        avoid_view_(*machine_),
        no_fit_pass_(static_cast<std::size_t>(n_midplanes_) + 1, 0),
        job_at_(static_cast<std::size_t>(n_midplanes_), kNoJob),
        wear_hours_(static_cast<std::size_t>(n_midplanes_), 0.0),
        wear_updated_(static_cast<std::size_t>(n_midplanes_)),
        job_log_(*machine_) {
    // A job size with no legal partition would block the queue head forever
    // with nothing to reserve.
    const std::vector<int>& legal = machine_->legal_partition_sizes();
    for (const int size : config.workload.job_sizes) {
      CORAL_EXPECTS(std::find(legal.begin(), legal.end(), size) != legal.end());
    }
  }

  SynthResult run() {
    {
      obs::Span span(obs_, "synth.workload");
      Rng workload_rng = master_rng_.split();
      workload_ = generate_workload(config_.workload, config_.start, config_.days,
                                    workload_rng, *catalog_);
      span.counts(workload_.apps.size(), workload_.schedule.size());
    }
    bug_alive_.assign(workload_.apps.size(), true);

    // Prime the fault process.
    push_next_fault(config_.start);

    // Maintenance windows gate try_schedule(); a wake-up event at each window
    // close restarts the drained queue (hold-free DiagRelease).
    if (config_.maintenance.enabled && config_.maintenance.period > 0) {
      for (TimePoint w = config_.maintenance.first; w < config_.end();
           w = w + config_.maintenance.period) {
        const TimePoint close = w + config_.maintenance.duration;
        if (close < config_.end()) {
          push(SimEvent{.t = close, .kind = EventKind::DiagRelease});
        }
      }
    }

    obs::Span sim_span(obs_, "synth.simulate");
    std::size_t next_arrival = 0;
    while (true) {
      const bool have_arrival = next_arrival < workload_.schedule.size();
      const bool have_event = !events_.empty();
      if (!have_arrival && !have_event) break;
      const TimePoint ta =
          have_arrival ? workload_.schedule[next_arrival].arrival : TimePoint::from_calendar(9999, 1, 1);
      if (have_event && events_.top().t <= ta) {
        const SimEvent ev = events_.top();
        events_.pop();
        handle(ev);
      } else if (have_arrival) {
        const Submission& sub = workload_.schedule[next_arrival++];
        enqueue_job(sub.app, sub.arrival, 0, std::nullopt);
        try_schedule(sub.arrival);
      }
    }

    finalize_running_jobs();
    if (config_.noise.enabled) {
      obs::Span span(obs_, "synth.noise");
      const std::size_t before = records_.size();
      emit_noise();
      span.counts(job_log_.size(), records_.size() - before);
    }
    CORAL_OBS_COUNT(obs_, "synth.schedule.passes", passes_);
    CORAL_OBS_COUNT(obs_, "synth.schedule.examined", examined_);
    CORAL_OBS_COUNT(obs_, "synth.schedule.walks", walks_);
    CORAL_OBS_COUNT(obs_, "synth.schedule.no_fit_skips", no_fit_skips_);
    sim_span.counts(workload_.schedule.size(), records_.size());
    sim_span.end();

    obs::Span span(obs_, "synth.assemble");
    SynthResult result = assemble();
    span.counts(records_.size(), result.ras.size());
    return result;
  }

 private:
  static constexpr std::int32_t kNoJob = -1;

  // ---- queue & placement -------------------------------------------------

  void enqueue_job(std::int32_t app, TimePoint t, int consec_fails,
                   std::optional<Partition> prev, bool priority = false) {
    QueuedJob q;
    q.job_id = next_job_id_++;
    q.app = app;
    q.queue_time = t;
    q.consec_fails = consec_fails;
    q.prev_partition = prev;
    // Resubmissions of interrupted jobs are requeued ahead of the backlog
    // (Cobalt restores the original queue position on a failed run).
    if (priority) {
      queue_.push_front(std::move(q));
    } else {
      queue_.push_back(std::move(q));
    }
  }

  bool in_maintenance(TimePoint t) const {
    const MaintenanceConfig& mw = config_.maintenance;
    if (!mw.enabled || mw.period <= 0 || t < mw.first) return false;
    return (t - mw.first) % mw.period < mw.duration;
  }

  void try_schedule(TimePoint now) {
    if (now >= config_.end()) return;
    if (in_maintenance(now)) return;  // drain: nothing new starts
    ++passes_;
    view_ = pool_;  // overlay with head-of-queue reservation
    const bool avoiding = config_.advisor != nullptr;
    bool reserved = false;
    // Cobalt-like bounded backfill: look at most this deep into the queue.
    int depth = 0;
    for (auto it = queue_.begin(); it != queue_.end() && depth < 256 &&
                                   view_.busy_count() < static_cast<std::size_t>(n_midplanes_);
         ++depth) {
      ++examined_;
      const App& app = workload_.apps[static_cast<std::size_t>(it->app)];
      const int size = app.size_midplanes;
      const Usec runtime_hint = app.base_runtime;
      // The fault-aware overlay of view_, built at most once per job.
      const sched::PartitionPool* avoid_view = avoiding ? nullptr : &view_;
      const auto avoid = [&]() -> const sched::PartitionPool& {
        if (avoid_view == nullptr) avoid_view = &fault_aware_view(now);
        return *avoid_view;
      };
      // A fresh resubmission waits briefly for its previous partition
      // (held for post-failure cleanup) instead of scattering elsewhere.
      if (it->prev_partition &&
          now - it->queue_time < config_.sched.resubmit_affinity_window &&
          !avoid().is_free(*it->prev_partition)) {
        ++it;
        continue;
      }
      std::optional<Partition> part;
      if (no_fit_pass_[static_cast<std::size_t>(size)] == passes_) {
        // No-fit rule: an earlier job of this size found nothing free on
        // view_ in this pass. Within a pass view_ only gains busy midplanes
        // (acquire, force_acquire) and the fault-aware overlay only adds to
        // it, so this job cannot be placed either. Skipping its walks skips
        // no draw: the affinity bernoulli needs prev_partition free, and it
        // is a legal partition of this size; uniform_index is drawn only
        // when something is free.
        ++no_fit_skips_;
      } else {
        if (avoiding) {
          ++walks_;
          part = placement_.choose(avoid(), size, runtime_hint, it->prev_partition, sim_rng_);
        }
        if (!part) {
          // Fall back to ignoring the blacklist rather than idling the queue —
          // but never via the resubmission-affinity shortcut: a fault-aware
          // scheduler deliberately refuses to re-place a job on failed nodes.
          ++walks_;
          part = placement_.choose(view_, size, runtime_hint,
                                   avoiding ? std::nullopt : it->prev_partition, sim_rng_);
          if (!part) no_fit_pass_[static_cast<std::size_t>(size)] = passes_;
        }
      }
      if (part) {
        view_.acquire(*part);
        start_job(*it, *part, now);
        it = queue_.erase(it);
      } else {
        if (!reserved) {
          // Reserve the policy-preferred partition for the blocked head so
          // later (smaller) jobs cannot starve it forever.
          reserved = true;
          view_.force_acquire(placement_.preferred(size, runtime_hint));
        }
        ++it;
      }
    }
  }

  void start_job(const QueuedJob& q, const Partition& part, TimePoint now) {
    CORAL_OBS_COUNT(obs_, "sched.jobs_started", 1);
    if (q.prev_partition) {
      // Mirrors the paper's Obs. 10 statistic: where do resubmissions land?
      CORAL_OBS_COUNT(obs_, part == *q.prev_partition ? "sched.resubmit_same_partition"
                                                      : "sched.resubmit_other_partition",
                      1);
    }
    pool_.acquire(part);
    const std::size_t slot = alloc_slot();
    ActiveJob& j = slots_[slot];
    const App& app = workload_.apps[static_cast<std::size_t>(q.app)];
    j.active = true;
    j.job_id = q.job_id;
    j.app = q.app;
    j.queue_time = q.queue_time;
    j.start = now;
    j.planned_end = now + sample_runtime(app, sim_rng_);
    j.part = part;
    j.version += 1;
    j.consec_fails = q.consec_fails;
    for (MidplaneId m : part.midplanes()) job_at_[static_cast<std::size_t>(m)] = static_cast<std::int32_t>(slot);

    push(SimEvent{.t = j.planned_end, .kind = EventKind::JobEnd, .slot = slot,
                  .version = j.version});

    // Persistent faults re-hit newly started jobs (job-related redundancy).
    for (const ActivePersistentFault& f : persistent_) {
      if (f.until <= now) continue;
      if (!part.covers_key(f.location.packed(), codec_)) continue;
      const TimePoint hit = now + process_.sample_rehit_delay();
      if (hit >= j.planned_end || hit >= f.until) continue;
      push(SimEvent{.t = hit, .kind = EventKind::Interrupt, .slot = slot,
                    .version = j.version, .code = f.code, .truth_id = f.truth_id,
                    .count_new_manifestation = true});
      break;  // first active fault is enough to kill the job
    }

    // Application bug: manifests early in the run (Obs. 11).
    if (app.buggy && bug_alive_[static_cast<std::size_t>(q.app)]) {
      const TimePoint hit = now + sample_bug_manifest(config_.workload, sim_rng_);
      if (hit < j.planned_end) {
        push(SimEvent{.t = hit, .kind = EventKind::Interrupt, .slot = slot,
                      .version = j.version, .code = app.bug_code, .truth_id = -2,
                      .count_new_manifestation = true});
      }
    }
  }

  std::size_t alloc_slot() {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].active) return i;
    }
    slots_.emplace_back();
    return slots_.size() - 1;
  }

  // ---- event handling ----------------------------------------------------

  void push(SimEvent ev) {
    ev.seq = next_seq_++;
    events_.push(std::move(ev));
  }

  void handle(const SimEvent& ev) {
    switch (ev.kind) {
      case EventKind::JobEnd: {
        const ActiveJob& j = slots_[ev.slot];
        if (!j.active || j.version != ev.version) return;  // stale
        end_job(ev.slot, std::min(ev.t, config_.end()), /*interrupted=*/false, 0, -1);
        break;
      }
      case EventKind::Interrupt:
        handle_interrupt(ev);
        break;
      case EventKind::Resubmit:
        if (ev.t < config_.end()) {
          enqueue_job(ev.app, ev.t, ev.consec_fails, ev.prev_partition,
                      /*priority=*/true);
          try_schedule(ev.t);
        }
        break;
      case EventKind::FaultTrigger:
        handle_fault_trigger(Trigger{ev.t, ev.trigger_class, ev.code});
        break;
      case EventKind::DiagRelease:
        if (ev.hold) pool_.release(*ev.hold);
        try_schedule(ev.t);
        break;
    }
  }

  void handle_interrupt(const SimEvent& ev) {
    ActiveJob& j = slots_[ev.slot];
    if (!j.active || j.version != ev.version) return;  // stale (job already gone)
    if (ev.t >= config_.end()) return;

    std::int32_t truth_id = ev.truth_id;
    const ErrcodeInfo& info = catalog_->info(ev.code);

    if (truth_id == -2) {
      // Application bug manifestation: a fresh ground-truth instance.
      const bgp::Location loc =
          machine_->location_on_midplane(info.loc_kind, pick_midplane(j.part), storm_rng_);
      truth_id = add_truth(ev.t, ev.code, loc, FaultNature::ApplicationError, false, -1);
      emit_storm(ev.t, ev.code, loc, j.part, truth_id);

      // Shared-file-system errors hit other running jobs too (§VI-C).
      if (info.propagates) propagate_to_victims(ev, truth_id);

      // The user may fix the bug after seeing the failure.
      if (!sim_rng_.bernoulli(
              workload_.apps[static_cast<std::size_t>(j.app)].bug_difficulty)) {
        bug_alive_[static_cast<std::size_t>(j.app)] = false;
      }
    } else if (ev.count_new_manifestation) {
      // Persistent-fault re-hit: new records, same underlying fault. Copy the
      // original's fields: add_truth appends to truth_.faults, so a reference
      // into it would dangle across the call.
      const bgp::Location orig_loc = truth_.faults[static_cast<std::size_t>(truth_id)].location;
      const FaultNature orig_nature = truth_.faults[static_cast<std::size_t>(truth_id)].nature;
      const std::int32_t rehit_id =
          add_truth(ev.t, ev.code, orig_loc, orig_nature, true, truth_id);
      emit_storm(ev.t, ev.code, orig_loc, j.part, rehit_id);
      truth_id = rehit_id;
    }

    end_job(ev.slot, ev.t, /*interrupted=*/true, ev.code, truth_id);
  }

  void propagate_to_victims(const SimEvent& ev, std::int32_t truth_id) {
    const auto extra = sim_rng_.poisson(config_.resubmit.propagate_extra_jobs_mean);
    if (extra == 0) return;
    std::vector<std::size_t> victims;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (s == ev.slot || !slots_[s].active) continue;
      // Large partitions use dedicated I/O resources; shared-file-system
      // victims are the small jobs (keeps Obs. 11's "no app-error
      // interruption above 32 midplanes" intact).
      if (slots_[s].part.midplane_count() > zones_.wide_threshold) continue;
      victims.push_back(s);
    }
    for (std::uint64_t k = 0; k < extra && !victims.empty(); ++k) {
      const std::size_t pick = sim_rng_.uniform_index(victims.size());
      const std::size_t vslot = victims[pick];
      victims.erase(victims.begin() + static_cast<std::ptrdiff_t>(pick));
      ActiveJob& v = slots_[vslot];
      const ErrcodeInfo& info = catalog_->info(ev.code);
      const TimePoint vt = ev.t + 3 * kUsecPerSec + static_cast<Usec>(k) * kUsecPerSec;
      if (vt >= v.planned_end || vt >= config_.end()) continue;
      const bgp::Location vloc =
          machine_->location_on_midplane(info.loc_kind, pick_midplane(v.part), storm_rng_);
      emit_storm(vt, ev.code, vloc, v.part, truth_id);
      end_job(vslot, vt, /*interrupted=*/true, ev.code, truth_id);
    }
  }

  void handle_fault_trigger(const Trigger& trig) {
    const TimePoint t = trig.time;
    push_next_fault(t);
    if (t >= config_.end()) return;

    // Find the location given current occupancy.
    const OccupancyView view{
        .busy = [this](MidplaneId m) {
          return pool_.midplane_busy(m);
        },
        .wide_exposure_hours = [this, t](MidplaneId m) {
          double hours = wide_exposure(m, t);
          const std::int32_t s = job_at_[static_cast<std::size_t>(m)];
          if (s != kNoJob &&
              slots_[static_cast<std::size_t>(s)].part.midplane_count() >=
                  zones_.wide_threshold) {
            hours += config_.faults.wide_running_bonus_hours;
          }
          return hours;
        },
    };
    const auto loc = process_.choose_location(trig, view);
    if (!loc) return;  // no feasible footprint (e.g. machine fully busy)

    const ErrcodeInfo& info = catalog_->info(trig.code);
    // The hardware's footprint: its midplane, or every midplane of its rack.
    const MidplaneRange footprint = codec_.midplanes(loc->packed());
    const std::int32_t slot_at = job_at_[static_cast<std::size_t>(footprint.first)];

    const std::int32_t truth_id =
        add_truth(t, trig.code, *loc, FaultNature::SystemFailure,
                  trig.cls == TriggerClass::Persistent, -1);

    switch (trig.cls) {
      case TriggerClass::IdleHardware: {
        emit_storm(t, trig.code, *loc, std::nullopt, truth_id);
        // Take the hardware out for diagnostics briefly so no job lands on
        // the faulted midplane mid-storm (rack-level faults hold the rack).
        const Partition hold = Partition::unchecked(footprint.first, footprint.size());
        pool_.force_acquire(hold);
        push(SimEvent{.t = t + 15 * kUsecPerMin, .kind = EventKind::DiagRelease,
                      .hold = hold});
        break;
      }
      case TriggerClass::Benign: {
        const std::optional<Partition> part =
            slot_at != kNoJob ? std::optional(slots_[static_cast<std::size_t>(slot_at)].part)
                              : std::nullopt;
        emit_storm(t, trig.code, *loc, part, truth_id);
        break;
      }
      case TriggerClass::Interrupting:
      case TriggerClass::Persistent: {
        if (trig.cls == TriggerClass::Persistent) {
          persistent_.push_back({*loc, trig.code, t + process_.sample_repair_time(),
                                 truth_id});
        }
        if (slot_at != kNoJob) {
          ActiveJob& j = slots_[static_cast<std::size_t>(slot_at)];
          emit_storm(t, trig.code, *loc, j.part, truth_id);
          end_job(static_cast<std::size_t>(slot_at), t, /*interrupted=*/true, trig.code,
                  truth_id);
        } else {
          emit_storm(t, trig.code, *loc, std::nullopt, truth_id);
        }
        break;
      }
    }
    (void)info;
  }

  void push_next_fault(TimePoint after) {
    const auto trig = process_.next(after, config_.end());
    if (!trig) return;
    push(SimEvent{.t = trig->time, .kind = EventKind::FaultTrigger, .code = trig->code,
                  .trigger_class = trig->cls});
  }

  // ---- job completion ----------------------------------------------------

  void end_job(std::size_t slot, TimePoint t, bool interrupted, ErrcodeId code,
               std::int32_t truth_id) {
    ActiveJob& j = slots_[slot];
    CORAL_EXPECTS(j.active);
    j.version += 1;  // invalidate pending events
    pool_.release(j.part);
    for (MidplaneId m : j.part.midplanes()) {
      job_at_[static_cast<std::size_t>(m)] = kNoJob;
      if (j.part.midplane_count() >= zones_.wide_threshold) {
        // Accumulate residual wear: decayed exposure plus this run's hours.
        const auto i = static_cast<std::size_t>(m);
        wear_hours_[i] = wide_exposure(m, t) +
                         static_cast<double>(t - j.start) /
                             static_cast<double>(kUsecPerHour);
        wear_updated_[i] = t;
      }
    }

    if (interrupted && config_.resubmit.failure_hold > 0) {
      // Post-failure cleanup: the control system holds the partition before
      // anything else boots there, so a prompt resubmission can reclaim it.
      pool_.force_acquire(j.part);
      push(SimEvent{.t = t + config_.resubmit.failure_hold,
                    .kind = EventKind::DiagRelease, .hold = j.part});
    }

    write_job_record(j, std::max(t, j.start + 1), interrupted);

    if (interrupted) {
      CORAL_OBS_COUNT(obs_, "synth.interruptions", 1);
      truth_.interruptions.push_back({j.job_id, truth_id, code, t});
      const ErrcodeInfo& info = catalog_->info(code);
      const bool app_error = info.nature == FaultNature::ApplicationError;
      const double prob = app_error ? config_.resubmit.prob_after_app
                                    : config_.resubmit.prob_after_system;
      if (sim_rng_.bernoulli(prob)) {
        const double mean_h = app_error ? config_.resubmit.delay_mean_hours_app
                                        : config_.resubmit.delay_mean_hours_system;
        const TimePoint when =
            t + static_cast<Usec>(sim_rng_.exponential(mean_h) * kUsecPerHour);
        CORAL_OBS_COUNT(obs_, "synth.resubmits", 1);
        push(SimEvent{.t = when, .kind = EventKind::Resubmit, .app = j.app,
                      .consec_fails = j.consec_fails + 1, .prev_partition = j.part});
      }
    }

    j.active = false;
    try_schedule(t);
  }

  void write_job_record(const ActiveJob& j, TimePoint end, bool interrupted) {
    const App& app = workload_.apps[static_cast<std::size_t>(j.app)];
    joblog::JobRecord rec;
    rec.job_id = j.job_id;
    rec.exec_id = job_log_.intern_exec(app.exec_file);
    rec.user_id = job_log_.intern_user(strformat("user%03d", app.user));
    rec.project_id = job_log_.intern_project(strformat("project%02d", app.project));
    rec.queue_time = j.queue_time;
    rec.start_time = j.start;
    rec.end_time = end;
    rec.partition = j.part;
    rec.exit_code = interrupted ? 137 : 0;
    job_log_.append(rec);
  }

  void finalize_running_jobs() {
    for (ActiveJob& j : slots_) {
      if (!j.active) continue;
      write_job_record(j, std::min(j.planned_end, config_.end()), false);
      j.active = false;
    }
    queue_.clear();
  }

  // ---- record emission ---------------------------------------------------

  std::int32_t add_truth(TimePoint t, ErrcodeId code, const bgp::Location& loc,
                         FaultNature nature, bool persistent, std::int32_t redundant_of) {
    FaultInstanceTruth f;
    f.id = static_cast<std::int32_t>(truth_.faults.size());
    f.time = t;
    f.code = code;
    f.location = loc;
    f.nature = nature;
    f.persistent = persistent;
    f.redundant_of = redundant_of;
    truth_.faults.push_back(f);
    return f.id;
  }

  void emit_storm(TimePoint t, ErrcodeId code, const bgp::Location& loc,
                  std::optional<Partition> part, std::int32_t truth_id) {
    Manifestation m;
    m.time = t;
    m.code = code;
    m.location = loc;
    m.job_partition = part;
    m.truth_tag = truth_id;
    const std::size_t before = records_.size();
    storm_.expand(m, storm_rng_, records_);
    CORAL_OBS_COUNT(obs_, "synth.storm_records", records_.size() - before);

    // The placement advisor (if attached) sees the primary record of each
    // manifestation live — the control system knows the originating
    // hardware location (§VII's "failure information" feed). The storm's
    // temporal/spatial echo records are reporting redundancy the paper's
    // filters undo; feeding them here would fan a midplane-scoped alarm
    // across every midplane of the dying job's partition.
    if (config_.advisor != nullptr && records_.size() > before) {
      config_.advisor->on_record(records_[before].event);
    }
  }

  MidplaneId pick_midplane(const Partition& part) {
    return part.first_midplane() +
           static_cast<MidplaneId>(storm_rng_.uniform_index(
               static_cast<std::uint64_t>(part.midplane_count())));
  }

  // ---- noise -------------------------------------------------------------

  void emit_noise() {
    const Catalog& catalog = *catalog_;
    const auto noise_ids = catalog.nonfatal_ids();
    if (noise_ids.empty()) return;  // fatal-only catalog: nothing to emit
    std::vector<double> weights;
    for (ErrcodeId id : noise_ids) weights.push_back(catalog.info(id).weight);
    const DiscreteSampler sampler(weights);

    // Background records, uniformly spread across time and the machine.
    const double days = static_cast<double>(config_.days);
    const auto n_background =
        noise_rng_.poisson(config_.noise.background_per_day * days);
    for (std::uint64_t i = 0; i < n_background; ++i) {
      const ErrcodeId code = noise_ids[sampler.sample(noise_rng_)];
      const ErrcodeInfo& info = catalog.info(code);
      const TimePoint t =
          config_.start +
          static_cast<Usec>(noise_rng_.uniform() *
                            static_cast<double>(config_.end() - config_.start));
      const auto mid = static_cast<MidplaneId>(
          noise_rng_.uniform_index(static_cast<std::uint64_t>(n_midplanes_)));
      TaggedEvent te;
      te.event.errcode = code;
      te.event.severity = info.severity;
      te.event.event_time = t;
      te.event.location = machine_->location_on_midplane(info.loc_kind, mid, noise_rng_);
      te.event.serial = static_cast<std::uint32_t>(noise_rng_.next() & 0xFFFFFF);
      te.truth_tag = -1;
      records_.push_back(te);
    }

    // Reboot-before-execution: boot INFO records per midplane at job start
    // (skipped for catalogs without a boot code).
    const auto boot_code = catalog.find("boot_progress");
    if (!boot_code) return;
    for (const joblog::JobRecord& job : job_log_) {
      for (MidplaneId m : job.partition.midplanes()) {
        for (int r = 0; r < config_.noise.boot_records_per_midplane; ++r) {
          TaggedEvent te;
          te.event.errcode = *boot_code;
          te.event.severity = ras::Severity::Info;
          te.event.event_time =
              job.start_time - 60 * kUsecPerSec +
              static_cast<Usec>(noise_rng_.uniform() * 50.0 * kUsecPerSec);
          te.event.location = machine_->midplane_location(m);
          te.event.serial = static_cast<std::uint32_t>(noise_rng_.next() & 0xFFFFFF);
          te.truth_tag = -1;
          records_.push_back(te);
        }
      }
    }
  }

  // ---- assembly ----------------------------------------------------------

  SynthResult assemble() {
    // Sort records and tags together so record_tags aligns with log
    // positions. One sort of contiguous (time, index) keys: the index
    // tie-break keeps equal-time records in emission order, as a stable sort
    // would.
    std::vector<std::pair<std::int64_t, std::size_t>> order(records_.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = {records_[i].event.event_time.usec(), i};
    }
    std::sort(order.begin(), order.end());

    std::vector<ras::RasEvent> events;
    mem::reserve_huge(events, records_.size());
    std::vector<std::int32_t> tags;
    tags.reserve(records_.size());
    for (const auto& key : order) {
      events.push_back(records_[key.second].event);
      tags.push_back(records_[key.second].truth_tag);
    }

    SynthResult result;
    result.ras = ras::RasLog(std::move(events), *catalog_,
                             *machine_);  // stable re-sort keeps order
    result.truth = std::move(truth_);
    result.truth.record_tags = std::move(tags);
    job_log_.finalize();
    result.jobs = std::move(job_log_);
    return result;
  }

  // ---- members -----------------------------------------------------------

  ScenarioConfig config_;
  obs::Collector* obs_;
  const Catalog* catalog_;
  const machine::MachineModel* machine_;
  int n_midplanes_;
  machine::LocCodec codec_;
  machine::PlacementZones zones_;
  Rng master_rng_;
  Rng sim_rng_;
  Rng storm_rng_;
  Rng noise_rng_;
  SystemFaultProcess process_;
  StormModel storm_;

  Workload workload_;
  std::vector<bool> bug_alive_;

  /// `view_` with every idle midplane the advisor advises against marked
  /// busy (fault-aware placement, §VII), built into `avoid_view_`. Only
  /// called when an advisor is attached.
  const sched::PartitionPool& fault_aware_view(TimePoint now) {
    avoid_view_ = view_;
    for (MidplaneId m = 0; m < n_midplanes_; ++m) {
      if (!avoid_view_.midplane_busy(m) && config_.advisor->avoid(m, now)) {
        avoid_view_.force_acquire(Partition::unchecked(m, 1));
      }
    }
    return avoid_view_;
  }

  /// Decayed wide-job exposure (hours) per midplane; see FaultConfig.
  double wide_exposure(MidplaneId m, TimePoint t) const {
    const auto i = static_cast<std::size_t>(m);
    if (wear_hours_[i] <= 0) return 0.0;
    const double dt_h =
        static_cast<double>(t - wear_updated_[i]) / static_cast<double>(kUsecPerHour);
    return wear_hours_[i] * std::exp(-dt_h / config_.faults.wide_wear_tau_hours);
  }

  sched::PlacementTable placement_;
  sched::PartitionPool pool_;
  /// Per-pass overlays of pool_, reassigned (not reallocated) each pass.
  sched::PartitionPool view_;
  sched::PartitionPool avoid_view_;
  /// The pass in which each job size last found nothing free on view_.
  std::vector<std::uint64_t> no_fit_pass_;
  // Scheduler work, published once as synth.schedule.* counters.
  std::uint64_t passes_ = 0;
  std::uint64_t examined_ = 0;
  std::uint64_t walks_ = 0;
  std::uint64_t no_fit_skips_ = 0;
  std::vector<std::int32_t> job_at_;
  std::vector<double> wear_hours_;
  std::vector<TimePoint> wear_updated_;
  std::vector<ActiveJob> slots_;
  std::deque<QueuedJob> queue_;
  std::vector<ActivePersistentFault> persistent_;

  std::priority_queue<SimEvent, std::vector<SimEvent>, EventOrder> events_;
  std::uint64_t next_seq_ = 0;
  std::int64_t next_job_id_ = 1;

  std::vector<TaggedEvent> records_;
  joblog::JobLog job_log_;
  GroundTruth truth_;
};

}  // namespace

SynthResult generate(const ScenarioConfig& config, const Context& ctx) {
  Simulation sim(config, ctx);
  return sim.run();
}

}  // namespace coral::synth
