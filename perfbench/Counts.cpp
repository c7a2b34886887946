//===- perfbench/Counts.cpp - Per-layer count and ratio metrics -----------===//
//
// Part of StrataIB.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "exec/ExecutionPlan.h"

#include <cstdio>
#include <utility>

using namespace perfbench;
using namespace sdt;

namespace {

using arch::CycleCategory;

/// SdtStats counters reported as they are, by metric name.
const std::pair<const char *, uint64_t core::SdtStats::*> StatFields[] = {
    {"core.fragments_translated", &core::SdtStats::FragmentsTranslated},
    {"core.guest_instrs_translated", &core::SdtStats::GuestInstrsTranslated},
    {"core.dispatch_entries", &core::SdtStats::DispatchEntries},
    {"core.links_patched", &core::SdtStats::LinksPatched},
    {"core.code_write_invalidations",
     &core::SdtStats::CodeWriteInvalidations},
    {"opt.traces_built", &core::SdtStats::TracesBuilt},
    {"opt.traces_optimized", &core::SdtStats::TracesOptimized},
    {"_spec_guard_hits", &core::SdtStats::SpecGuardHits},
    {"_spec_guard_misses", &core::SdtStats::SpecGuardMisses},
    {"cachemgr.flushes", &core::SdtStats::Flushes},
    {"cachemgr.partial_evictions", &core::SdtStats::PartialEvictions},
    {"cachemgr.evicted_bytes", &core::SdtStats::EvictedBytes},
    {"cachemgr.retranslations_after_eviction",
     &core::SdtStats::RetranslationsAfterEviction},
};

/// Cycle categories whose share of all SDT cycles is reported.
const std::pair<const char *, CycleCategory> CycleShares[] = {
    {"core.ib_lookup_cycle_share", CycleCategory::IBLookup},
    {"core.translate_cycle_share", CycleCategory::Translate},
    {"core.dispatch_cycle_share", CycleCategory::Dispatch},
    {"plugin.instrument_cycle_share", CycleCategory::Instrument},
};

} // namespace

void PassStats::fail(const std::string &What, const std::string &Why) {
  ++Failed;
  std::fprintf(stderr, "perfbench: FAILED %s: %s\n", What.c_str(),
               Why.c_str());
}

std::array<uint64_t, static_cast<size_t>(CycleCategory::NumCategories)>
perfbench::cyclesByCategory(const arch::TimingModel &T) {
  std::array<uint64_t, static_cast<size_t>(CycleCategory::NumCategories)> C{};
  for (size_t I = 0; I != C.size(); ++I)
    C[I] = T.cycles(static_cast<CycleCategory>(I));
  return C;
}

void LayerCounts::addStats(
    const core::SdtStats &S,
    const std::array<uint64_t, static_cast<size_t>(
                                   CycleCategory::NumCategories)> &Cycles) {
  for (const auto &[Name, Field] : StatFields)
    Sums[Name] += S.*Field;
  Sums["core.ib_execs"] += S.ibExecTotal();
  for (size_t I = 0; I != Cycles.size(); ++I) {
    Sums["_cycles"] += Cycles[I];
    Sums["_cycles." + std::to_string(I)] += Cycles[I];
  }
}

void LayerCounts::addEngine(core::SdtEngine &E, const arch::TimingModel &T) {
  Sums["arch.icache_accesses"] += T.icache().accesses();
  Sums["_icache_misses"] += T.icache().misses();
  Sums["arch.dcache_accesses"] += T.dcache().accesses();
  Sums["_dcache_misses"] += T.dcache().misses();
  const arch::BranchPredictor &P = T.predictor();
  Sums["_ib_predictions"] += P.indirectLookups() + P.returnLookups();
  Sums["_ib_mispredicts"] += P.indirectMispredicts() + P.returnMispredicts();

  Sums["_main_lookups"] += E.mainHandler().lookups();
  Sums["_main_hits"] += E.mainHandler().hits();

  Sums["_engines"] += 1;
  Sums["_plan_engines"] +=
      E.activeEngine() == core::ExecEngineKind::Plan ? 1 : 0;
  if (const exec::PlanStats *PS = E.planStats()) {
    Sums["exec.plans_built"] += PS->PlansBuilt;
    Sums["exec.plans_rebuilt"] += PS->PlansRebuilt;
    Sums["exec.legacy_fragments"] += PS->LegacyFragments;
    Sums["_fused_ops"] += PS->FusedOps;
    Sums["_step_ops"] += PS->StepOps;
  }
}

void LayerCounts::emit(std::map<std::string, double> &Out) const {
  auto get = [this](const std::string &K) -> double {
    auto It = Sums.find(K);
    return It == Sums.end() ? 0.0 : static_cast<double>(It->second);
  };
  auto ratio = [](double Num, double Den) { return Den != 0 ? Num / Den : 0.0; };

  for (const auto &[Name, Value] : Sums)
    if (Name[0] != '_')
      Out[Name] = static_cast<double>(Value);

  Out["arch.icache_miss_rate"] =
      ratio(get("_icache_misses"), get("arch.icache_accesses"));
  Out["arch.dcache_miss_rate"] =
      ratio(get("_dcache_misses"), get("arch.dcache_accesses"));
  Out["arch.ib_mispredict_rate"] =
      ratio(get("_ib_mispredicts"), get("_ib_predictions"));
  Out["core.ib_hit_rate"] = ratio(get("_main_hits"), get("_main_lookups"));
  for (const auto &[Name, Category] : CycleShares)
    Out[Name] = ratio(
        get("_cycles." + std::to_string(static_cast<size_t>(Category))),
        get("_cycles"));
  Out["exec.plan_cell_share"] = ratio(get("_plan_engines"), get("_engines"));
  Out["exec.fused_op_share"] =
      ratio(get("_fused_ops"), get("_fused_ops") + get("_step_ops"));
  Out["opt.spec_guard_hit_rate"] =
      ratio(get("_spec_guard_hits"),
            get("_spec_guard_hits") + get("_spec_guard_misses"));
}
