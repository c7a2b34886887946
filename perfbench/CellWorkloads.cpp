//===- perfbench/CellWorkloads.cpp - suite, pressure, observed ------------===//
//
// Part of StrataIB.
//
// The three batch workloads run a grid of cells (program x SDT
// configuration) serially on one thread. Per pass, each program's native
// baseline runs once under a timing model, at its first cell in the
// seeded order; every cell then runs the program under translation in a
// fresh engine (modeled caches start empty in every cell) and is checked
// against that baseline's full end state.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "State.h"

#include "plugin/PluginManager.h"
#include "support/Rng.h"
#include "trace/TraceExport.h"
#include "trace/TraceSink.h"
#include "vm/GuestVM.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <optional>

using namespace perfbench;
using namespace sdt;

namespace {

struct Cell {
  std::string Label; ///< "<program>/<configuration>".
  size_t Program = 0;
  core::SdtOptions Opts;
};

/// One program's native baseline within a pass.
struct Native {
  bool Ok = false;
  uint64_t Cycles = 0;
  EndState End;
};

/// Plugins attached to every `observed` cell.
const char *const ObservedPlugins = "coverage,ibedges,memcheck";

/// A cell's engine with, for `observed`, its plugins and sink. The engine
/// points at both, so it is declared last and destroyed first.
struct CellEngine {
  std::unique_ptr<plugin::PluginManager> Plugins;
  std::unique_ptr<trace::TraceSink> Sink;
  std::unique_ptr<core::SdtEngine> Engine;
};

trace::StatsExpectation expectationsOf(core::SdtEngine &E) {
  trace::StatsExpectation X;
  const core::SdtStats &S = E.stats();
  X.DispatchEntries = S.DispatchEntries;
  X.FragmentsTranslated = S.FragmentsTranslated;
  X.TracesBuilt = S.TracesBuilt;
  X.LinksPatched = S.LinksPatched;
  X.Flushes = S.Flushes;
  X.PartialEvictions = S.PartialEvictions;
  X.EvictedBytes = S.EvictedBytes;
  X.LinksUnlinked = S.LinksUnlinked;
  X.CodeWriteInvalidations = S.CodeWriteInvalidations;
  X.FragmentsInvalidatedByWrite = S.FragmentsInvalidatedByWrite;
  X.StaleBytesDiscarded = S.StaleBytesDiscarded;
  X.TracesOptimized = S.TracesOptimized;
  X.SpecGuardHits = S.SpecGuardHits;
  X.SpecGuardMisses = S.SpecGuardMisses;
  for (core::IBHandler *H : E.allHandlers())
    for (; H; H = H->backingHandler()) {
      auto It = std::find_if(
          X.Mechanisms.begin(), X.Mechanisms.end(),
          [H](const trace::MechExpectation &M) { return M.Name == H->name(); });
      if (It == X.Mechanisms.end())
        X.Mechanisms.push_back({H->name(), H->lookups(), H->hits()});
      else {
        It->Lookups += H->lookups();
        It->Hits += H->hits();
      }
    }
  return X;
}

class CellWorkload final : public Workload {
public:
  CellWorkload(uint32_t Scale, std::vector<std::string> ProgramNames,
               std::vector<Cell> Cells, bool Observed, uint64_t Seed,
               std::string ExportDir)
      : Scale(Scale), ProgramNames(std::move(ProgramNames)),
        Cells(std::move(Cells)), Observed(Observed), Order(Seed),
        ExportDir(std::move(ExportDir)) {}

  ~CellWorkload() override {
    if (Observed) {
      std::error_code EC;
      std::filesystem::remove_all(ExportDir, EC);
    }
  }

  bool setup(Tracer &T, double &Ms) override;
  PassStats runPass(Tracer &T, bool Traced, bool CheckMemory) override;

private:
  /// Runs program \p Prog natively under a timing model (timed), plus an
  /// untimed reference run on traced passes.
  Native runNative(size_t Prog, Tracer &T, bool Traced, bool CheckMemory,
                   PassStats &P, Digest &D);
  /// Runs cell \p Index under translation, checks it against \p N, and
  /// returns its modeled-identity digest.
  uint64_t runCell(size_t Index, const Native &N, Tracer &T, bool Traced,
                   bool CheckMemory, PassStats &P, LayerCounts &Counts);
  /// Creates the engine for \p C, adding the host time of the library
  /// calls to \p CreateMs; nullopt after reporting a failure.
  std::optional<CellEngine> createEngine(const Cell &C,
                                         arch::TimingModel *Timing, Tracer &T,
                                         double &CreateMs);

  uint32_t Scale;
  std::vector<std::string> ProgramNames;
  std::vector<Cell> Cells;
  bool Observed;
  Rng Order;
  std::string ExportDir;
  std::vector<isa::Program> Programs;
  arch::MachineModel Model = arch::x86Model();
};

bool CellWorkload::setup(Tracer &T, double &Ms) {
  Programs.clear();
  for (const std::string &Name : ProgramNames) {
    std::optional<Expected<isa::Program>> P;
    Ms += T.time("workloads.build",
                 [&] { P.emplace(workloads::buildWorkload(Name, Scale)); });
    if (!*P) {
      std::fprintf(stderr, "perfbench: %s\n", P->error().message().c_str());
      return false;
    }
    Programs.push_back(std::move(**P));
  }
  if (Observed) {
    std::error_code EC;
    std::filesystem::create_directories(ExportDir, EC);
    if (EC) {
      std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                   ExportDir.c_str(), EC.message().c_str());
      return false;
    }
  }
  return true;
}

Native CellWorkload::runNative(size_t Prog, Tracer &T, bool Traced,
                               bool CheckMemory, PassStats &P, Digest &D) {
  Native N;
  arch::TimingModel Timing(Model);
  vm::ExecOptions Exec;
  Exec.Timing = &Timing;
  std::optional<Expected<std::unique_ptr<vm::GuestVM>>> VM;
  double CreateMs = T.time(
      "vm.create", [&] { VM.emplace(vm::GuestVM::create(Programs[Prog], Exec)); });
  P.CreateMs += CreateMs;
  P.Layer["vm.create_ms"] += CreateMs;
  if (!*VM) {
    std::fprintf(stderr, "perfbench: %s: %s\n", ProgramNames[Prog].c_str(),
                 VM->error().message().c_str());
    return N;
  }
  vm::RunResult R;
  double Ms = T.time("vm.run", [&] { R = (**VM)->run(); });
  P.NativeMs[ProgramNames[Prog]] = Ms;
  P.GuestInstrs += R.InstructionCount;
  P.Layer["vm.native_ms"] += Ms;
  P.Layer["_native_instrs"] += static_cast<double>(R.InstructionCount);
  N.Ok = R.finishedNormally();
  if (!N.Ok)
    std::fprintf(stderr, "perfbench: native %s did not finish: %s\n",
                 ProgramNames[Prog].c_str(), R.FaultMessage.c_str());
  N.Cycles = Timing.totalCycles();
  N.End = captureEndState(std::move(R), (**VM)->state(),
                          CheckMemory ? &(**VM)->memory() : nullptr);
  addTiming(D, Timing);

  if (Traced) {
    // The same run without a timing model: the difference is the cost of
    // the arch models on the native side.
    vm::ExecOptions Untimed;
    auto Ref = vm::GuestVM::create(Programs[Prog], Untimed);
    if (Ref)
      P.Layer["vm.ref_ms"] += T.time("vm.ref_run", [&] { (*Ref)->run(); });
  }
  return N;
}

std::optional<CellEngine>
CellWorkload::createEngine(const Cell &C, arch::TimingModel *Timing,
                           Tracer &T, double &CreateMs) {
  CellEngine CE;
  vm::ExecOptions Exec;
  Exec.Timing = Timing;
  std::optional<Expected<std::unique_ptr<core::SdtEngine>>> E;
  CreateMs += T.time("core.create", [&] {
    E.emplace(core::SdtEngine::create(Programs[C.Program], C.Opts, Exec));
  });
  if (!*E) {
    std::fprintf(stderr, "perfbench: %s: %s\n", C.Label.c_str(),
                 E->error().message().c_str());
    return std::nullopt;
  }
  CE.Engine = std::move(**E);
  if (!Observed)
    return CE;
  std::optional<Expected<std::unique_ptr<plugin::PluginManager>>> M;
  CreateMs += T.time("plugin.create", [&] {
    M.emplace(plugin::createPluginManager(ObservedPlugins));
  });
  if (!*M) {
    std::fprintf(stderr, "perfbench: %s\n", M->error().message().c_str());
    return std::nullopt;
  }
  CE.Plugins = std::move(**M);
  CreateMs += T.time("trace.create",
                     [&] { CE.Sink = std::make_unique<trace::TraceSink>(); });
  CE.Engine->setPlugins(CE.Plugins.get());
  CE.Engine->setTraceSink(CE.Sink.get());
  return CE;
}

uint64_t CellWorkload::runCell(size_t Index, const Native &N, Tracer &T,
                               bool Traced, bool CheckMemory, PassStats &P,
                               LayerCounts &Counts) {
  const Cell &C = Cells[Index];
  ++P.Attempted;
  arch::TimingModel Timing(Model);
  double CreateMs = 0;
  std::optional<CellEngine> CE = createEngine(C, &Timing, T, CreateMs);
  P.CreateMs += CreateMs;
  P.Layer["core.create_ms"] += CreateMs;
  if (!CE) {
    P.fail(C.Label, "engine creation failed");
    return 0;
  }
  core::SdtEngine *Engine = CE->Engine.get();
  trace::TraceSink *Sink = CE->Sink.get();

  vm::RunResult R;
  double Ms = T.time("core.run", [&] { R = Engine->run(); });
  P.Layer["core.run_ms"] += Ms;
  P.Layer["_sdt_instrs"] += static_cast<double>(R.InstructionCount);
  P.GuestInstrs += R.InstructionCount;

  bool Written = true;
  if (Sink) {
    std::string Base = ExportDir + "/cell" + std::to_string(Index);
    trace::StatsExpectation X = expectationsOf(*Engine);
    double ExportMs = T.time("trace.export", [&] {
      Written = trace::writeJsonl(*Sink, Base + ".jsonl", &X) &&
                trace::writeChromeTrace(*Sink, Base + ".chrome.json");
    });
    Ms += ExportMs;
    P.Layer["trace.export_ms"] += ExportMs;
    P.Layer["trace.events_recorded"] += static_cast<double>(Sink->totalCount());
    P.Layer["trace.dropped_events"] += static_cast<double>(Sink->droppedCount());
    for (const char *Ext : {".jsonl", ".chrome.json"}) {
      std::error_code EC;
      uintmax_t Bytes = std::filesystem::file_size(Base + Ext, EC);
      if (!EC)
        P.Layer["trace.bytes_written"] += static_cast<double>(Bytes);
      std::filesystem::remove(Base + Ext, EC);
    }
  }
  P.SessionMs[C.Label] = Ms;
  if (!Written) {
    P.fail(C.Label, "trace export failed");
    return 0;
  }

  EndState Got = captureEndState(R, Engine->state(),
                                 CheckMemory ? &Engine->memory() : nullptr);
  if (!N.Ok) {
    P.fail(C.Label, "no native baseline");
    return 0;
  }
  P.Layer["core.stale_pc_runs"] += Got.Pc != N.End.Pc ? 1 : 0;
  std::string Diff = compareEndStates(N.End, Got);
  if (!Diff.empty()) {
    P.fail(C.Label, "differs from the reference interpreter: " + Diff);
    return 0;
  }

  P.Slowdowns.push_back(static_cast<double>(Timing.totalCycles()) /
                        static_cast<double>(N.Cycles));
  Counts.addStats(Engine->stats(), cyclesByCategory(Timing));
  Counts.addEngine(*Engine, Timing);
  Digest D;
  D.add(C.Label);
  addTiming(D, Timing);
  addEngine(D, *Engine);
  if (CE->Plugins)
    addPluginMetrics(D, CE->Plugins->metrics());

  if (Traced) {
    // The same cell without a timing model: the difference is the cost of
    // the arch models on the translated side.
    double Unused = 0;
    if (std::optional<CellEngine> Ref = createEngine(C, nullptr, T, Unused))
      P.Layer["core.ref_ms"] +=
          T.time("core.ref_run", [&] { Ref->Engine->run(); });
  }
  return D.value();
}

PassStats CellWorkload::runPass(Tracer &T, bool Traced, bool CheckMemory) {
  PassStats P;
  std::vector<size_t> Perm(Cells.size());
  std::iota(Perm.begin(), Perm.end(), 0);
  for (size_t I = Perm.size(); I > 1; --I)
    std::swap(Perm[I - 1], Perm[Order.nextBelow(I)]);

  std::vector<std::optional<Native>> Natives(Programs.size());
  std::vector<uint64_t> NativeDigests(Programs.size());
  std::vector<uint64_t> CellDigests(Cells.size());
  LayerCounts Counts;
  for (size_t I : Perm) {
    SpanScope CellSpan(T, "bench.cell");
    size_t Prog = Cells[I].Program;
    if (!Natives[Prog]) {
      Digest D;
      Natives[Prog] = runNative(Prog, T, Traced, CheckMemory, P, D);
      NativeDigests[Prog] = D.value();
    }
    CellDigests[I] =
        runCell(I, *Natives[Prog], T, Traced, CheckMemory, P, Counts);
  }
  Counts.emit(P.Layer);
  // The execution order is seeded; what a pass modeled is not.
  std::sort(P.Slowdowns.begin(), P.Slowdowns.end());

  Digest D;
  for (uint64_t V : NativeDigests)
    D.add(V);
  for (uint64_t V : CellDigests)
    D.add(V);
  P.Digest = D.value();
  return P;
}

core::SdtOptions mechanism(core::IBMechanism M, unsigned InlineDepth = 0) {
  core::SdtOptions O;
  O.Mechanism = M;
  O.InlineCacheDepth = InlineDepth;
  return O;
}

} // namespace

std::unique_ptr<Workload>
perfbench::makeCellWorkload(const std::string &Name, uint64_t Seed,
                            const std::string &WorkDir) {
  using core::IBMechanism;
  std::vector<std::string> Programs;
  std::vector<std::pair<std::string, core::SdtOptions>> Configs;
  uint32_t Scale = 0;
  bool Observed = false;

  if (Name == "suite") {
    Scale = 16;
    Configs = {{"dispatcher", mechanism(IBMechanism::Dispatcher)},
               {"ibtc", mechanism(IBMechanism::Ibtc)},
               {"sieve", mechanism(IBMechanism::Sieve)},
               {"ibtc+inline2", mechanism(IBMechanism::Ibtc, 2)}};
  } else if (Name == "pressure") {
    Scale = 2;
    Programs = {"bigcode", "hotcold", "gcc", "perlbmk", "smcpatch", "smctable"};
    for (IBMechanism M : {IBMechanism::Ibtc, IBMechanism::Sieve})
      for (cachemgr::CachePolicyKind K : {cachemgr::CachePolicyKind::Fifo,
                                          cachemgr::CachePolicyKind::Generational}) {
        core::SdtOptions O = mechanism(M);
        O.FragmentCacheBytes = 16 << 10;
        O.CachePolicy = K;
        O.EnableTraces = true;
        O.OptimizeTraces = true;
        O.TraceSpeculate = true;
        Configs.push_back({std::string(core::ibMechanismName(M)) + "/16KB-" +
                               cachemgr::cachePolicyName(K),
                           O});
      }
  } else if (Name == "observed") {
    Scale = 4;
    Observed = true;
    Configs = {{"ibtc", mechanism(IBMechanism::Ibtc)},
               {"sieve", mechanism(IBMechanism::Sieve)}};
  } else {
    return nullptr;
  }
  if (Programs.empty())
    for (const workloads::WorkloadInfo &W : workloads::allWorkloads())
      Programs.push_back(W.Name);

  std::vector<Cell> Cells;
  for (size_t P = 0; P != Programs.size(); ++P)
    for (const auto &[Label, Opts] : Configs)
      Cells.push_back({Programs[P] + "/" + Label, P, Opts});
  return std::make_unique<CellWorkload>(Scale, std::move(Programs),
                                        std::move(Cells), Observed, Seed,
                                        WorkDir + "/observed-export");
}
