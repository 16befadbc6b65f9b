#pragma once

#include <cstdint>

#include "coral/common/parallel.hpp"
#include "coral/common/rng.hpp"
#include "coral/machine/model.hpp"
#include "coral/obs/obs.hpp"
#include "coral/ras/catalog.hpp"

namespace coral {

/// The explicit per-analysis runtime handle: which machine catalog to
/// generate/analyze against, which worker pool to run on, a base RNG seed
/// policy, and where stage instrumentation goes.
///
/// A Context is a cheap-to-copy bundle of non-owning handles; the caller
/// keeps the catalog, pool and collector alive for as long as any analysis using
/// the context runs (for the default catalog that is the whole process).
/// Every layer that used to consult process-global state — fault injection,
/// the synthetic workload, RAS ingest/serialization, filtering, the core
/// reports and both co-analysis engines — takes a Context (or the relevant
/// member) instead, so two analyses over *different* catalogs can run
/// concurrently in one process.
///
/// A default-constructed Context reproduces the old global behaviour
/// exactly: the built-in Intrepid catalog on the reference BG/P machine,
/// serial execution, seed offset 0 and no instrumentation.
class Context {
 public:
  Context() : catalog_(&ras::default_catalog()) {}
  explicit Context(const ras::Catalog& catalog) : catalog_(&catalog) {}

  const ras::Catalog& catalog() const { return *catalog_; }
  const machine::MachineModel& machine() const { return *machine_; }
  par::ThreadPool* pool() const { return pool_; }
  obs::Collector* obs() const { return obs_; }
  std::uint64_t seed() const { return seed_; }

  Context& with_catalog(const ras::Catalog& catalog) {
    catalog_ = &catalog;
    return *this;
  }
  /// Target machine: topology, location grammar, partition algebra and
  /// placement policy all resolve through this model (default: the
  /// reference 40-rack BG/P). Models are process-lifetime singletons.
  Context& with_machine(const machine::MachineModel& machine) {
    machine_ = &machine;
    return *this;
  }
  /// Worker pool for the data-parallel stages; nullptr (the default) runs
  /// everything serially. Results are identical either way.
  Context& with_pool(par::ThreadPool* pool) {
    pool_ = pool;
    return *this;
  }
  /// Observability: every layer records its stage spans (one per stage,
  /// or per shard of a sharded stage, each also feeding a same-named
  /// duration histogram), typed counters — the log readers' per-reason
  /// "ingest.*.malformed.*" ledgers among them — and value histograms into
  /// `collector`. One object, one snapshot, every layer; nullptr (the
  /// default) records nothing.
  Context& with_obs(obs::Collector* collector) {
    obs_ = collector;
    return *this;
  }
  /// Seed policy: this offset is folded into every generator seed derived
  /// through the context, so a whole analysis can be re-randomized (or two
  /// contexts decorrelated) without touching per-config seeds. 0 leaves
  /// config seeds untouched.
  Context& with_seed(std::uint64_t seed) {
    seed_ = seed;
    return *this;
  }

  /// Fold a config-level seed through the context's seed policy.
  std::uint64_t derive_seed(std::uint64_t config_seed) const { return config_seed ^ seed_; }

  /// Deterministic RNG for a numbered stream under the context's policy.
  Rng make_rng(std::uint64_t stream) const {
    return Rng(seed_ ^ (0x9E3779B97F4A7C15ull * (stream + 1)));
  }

 private:
  const ras::Catalog* catalog_;
  const machine::MachineModel* machine_ = &machine::bgp_model();
  par::ThreadPool* pool_ = nullptr;
  obs::Collector* obs_ = nullptr;
  std::uint64_t seed_ = 0;
};

}  // namespace coral
