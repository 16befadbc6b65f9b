#pragma once

#include <cstdint>

#include "coral/common/parallel.hpp"
#include "coral/machine/model.hpp"
#include "coral/obs/obs.hpp"
#include "coral/ras/catalog.hpp"

namespace coral {

/// The explicit per-analysis runtime handle: which machine catalog to
/// generate/analyze against, a base RNG seed policy, and where stage
/// instrumentation goes.
///
/// A Context is a cheap-to-copy bundle of non-owning handles; the caller
/// keeps the catalog and collector alive for as long as any analysis using
/// the context runs (for the default catalog that is the whole process).
/// Every layer that used to consult process-global state — fault injection,
/// the synthetic workload, RAS ingest/serialization, filtering, the core
/// reports and the co-analysis — takes a Context (or the relevant
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
  /// Ignored by every analysis layer; see with_pool().
  par::ThreadPool* pool() const { return pool_; }
  obs::Collector* obs() const { return obs_; }
  std::uint64_t seed() const { return seed_; }

  /// Target machine: topology, location grammar, partition algebra and
  /// placement policy all resolve through this model (default: the
  /// reference 40-rack BG/P). Models are process-lifetime singletons.
  Context& with_machine(const machine::MachineModel& machine) {
    machine_ = &machine;
    return *this;
  }
  /// Ignored: the analysis runs serially, and no layer reads pool(). Kept
  /// because the e2e benchmark package compiles against it.
  Context& with_pool(par::ThreadPool* pool) {
    pool_ = pool;
    return *this;
  }
  /// Observability: every layer records its stage spans (one per stage,
  /// each also feeding a same-named duration histogram), typed counters —
  /// the log readers' per-reason "ingest.*.malformed.*" ledgers among
  /// them — and value histograms into `collector`. One object, one
  /// snapshot, every layer; nullptr (the default) records nothing.
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

 private:
  const ras::Catalog* catalog_;
  const machine::MachineModel* machine_ = &machine::bgp_model();
  par::ThreadPool* pool_ = nullptr;
  obs::Collector* obs_ = nullptr;
  std::uint64_t seed_ = 0;
};

}  // namespace coral
