//===- perfbench/ServiceWorkload.cpp - The `service` workload -------------===//
//
// Part of StrataIB.
//
// An EngineServer in shared-budget mode with warm start and the IBTC,
// serving tenants drawn from the SPEC proxies. One client drives it in a
// closed loop: each session is submitted (as a one-entry runTrace) only
// after the previous one returned. The sessions are a fixed Zipf draw
// (how many sessions each tenant gets) in an order the seed shuffles, so
// seeds change warm/cold and reclaim patterns but not the work mix.
// Every pass starts a fresh server, so it replays the same trace from
// cold.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "State.h"

#include "service/EngineServer.h"
#include "service/Snapshot.h"
#include "service/ZipfTrace.h"
#include "support/Rng.h"
#include "vm/GuestVM.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <optional>

using namespace perfbench;
using namespace sdt;

namespace {

constexpr uint32_t Scale = 8;
constexpr uint32_t NumTenants = 6;
/// Sessions per pass: at least 100, so that ten or more lie beyond p90.
constexpr uint32_t SessionsPerPass = 120;
constexpr uint32_t ZipfSHundredths = 120;
constexpr uint64_t ZipfSeed = 0x5E55104EULL;
constexpr uint32_t AdmissionWindow = 4;
constexpr uint32_t MinGrantBytes = 4096;

struct Tenant {
  std::string Workload;
  isa::Program Program;
  uint32_t RequestBytes = 0;
  uint64_t NativeCycles = 0;
  EndState Ref;
};

class ServiceWorkload final : public Workload {
public:
  explicit ServiceWorkload(uint64_t Seed)
      : Trace(service::zipfTrace(NumTenants, SessionsPerPass, ZipfSHundredths,
                                 ZipfSeed)) {
    Rng Order(Seed);
    for (size_t I = Trace.size(); I > 1; --I)
      std::swap(Trace[I - 1], Trace[Order.nextBelow(I)]);
    Opts.Mechanism = core::IBMechanism::Ibtc;
  }

  bool setup(Tracer &T, double &Ms) override;
  PassStats runPass(Tracer &T, bool Traced, bool CheckMemory) override;

private:
  /// Decodes each retained snapshot and replays it outside the server
  /// (create, prewarm, run), timed and untimed: the engine-level host
  /// times and counts the server does not expose.
  void replaySnapshots(service::EngineServer &Server, Tracer &T,
                       PassStats &P, LayerCounts &Counts);

  std::vector<uint32_t> Trace;
  core::SdtOptions Opts;
  arch::MachineModel Model = arch::x86Model();
  std::vector<Tenant> Tenants;
  uint32_t BudgetBytes = 0;
};

bool ServiceWorkload::setup(Tracer &T, double &Ms) {
  Tenants.clear();
  const std::vector<workloads::WorkloadInfo> &Suite = workloads::allWorkloads();
  uint64_t RequestSum = 0;
  uint32_t MaxRequest = MinGrantBytes;
  for (uint32_t I = 0; I != NumTenants; ++I) {
    Tenant Tn;
    Tn.Workload = Suite[I % Suite.size()].Name;
    std::optional<Expected<isa::Program>> P;
    Ms += T.time("workloads.build", [&] {
      P.emplace(workloads::buildWorkload(Tn.Workload, Scale));
    });
    if (!*P) {
      std::fprintf(stderr, "perfbench: %s\n", P->error().message().c_str());
      return false;
    }
    Tn.Program = std::move(**P);

    // Sizing probe: an untimed run under a roomy cache measures the
    // session footprint; the tenant requests 1.25x that.
    core::SdtOptions ProbeOpts = Opts;
    ProbeOpts.FragmentCacheBytes = 8u << 20;
    std::optional<Expected<std::unique_ptr<core::SdtEngine>>> Probe;
    Ms += T.time("core.create", [&] {
      Probe.emplace(core::SdtEngine::create(Tn.Program, ProbeOpts, {}));
    });
    if (!*Probe) {
      std::fprintf(stderr, "perfbench: %s\n", Probe->error().message().c_str());
      return false;
    }
    Ms += T.time("core.probe_run", [&] { (**Probe)->run(); });
    uint32_t Used = (**Probe)->fragmentCache().usedBytes();
    Tn.RequestBytes = Used + Used / 4;
    RequestSum += Tn.RequestBytes;
    MaxRequest = std::max(MaxRequest, Tn.RequestBytes);

    // Reference run: native cycles and the end state sessions must match.
    arch::TimingModel Timing(Model);
    vm::ExecOptions Exec;
    Exec.Timing = &Timing;
    std::optional<Expected<std::unique_ptr<vm::GuestVM>>> VM;
    Ms += T.time("vm.create",
                 [&] { VM.emplace(vm::GuestVM::create(Tn.Program, Exec)); });
    if (!*VM) {
      std::fprintf(stderr, "perfbench: %s\n", VM->error().message().c_str());
      return false;
    }
    vm::RunResult R;
    Ms += T.time("vm.run", [&] { R = (**VM)->run(); });
    if (!R.finishedNormally()) {
      std::fprintf(stderr, "perfbench: native %s did not finish: %s\n",
                   Tn.Workload.c_str(), R.FaultMessage.c_str());
      return false;
    }
    Tn.NativeCycles = Timing.totalCycles();
    Tn.Ref = captureEndState(std::move(R), (**VM)->state(), &(**VM)->memory());
    Tenants.push_back(std::move(Tn));
  }
  // Half the summed requests (but room for the largest session): the
  // tenants' retained warm state overflows the pool, so the arbiter
  // reclaims the least recently active tenants' snapshots.
  BudgetBytes = static_cast<uint32_t>(
      std::max<uint64_t>(RequestSum / 2, MaxRequest + MinGrantBytes));
  return true;
}

// Sessions expose no guest state, so there is no memory to check; the
// traced replays check theirs.
PassStats ServiceWorkload::runPass(Tracer &T, bool Traced,
                                   bool /*CheckMemory*/) {
  PassStats P;
  service::ServerConfig Cfg;
  Cfg.Mode = service::ArbiterMode::SharedBudget;
  Cfg.GlobalCacheBytes = BudgetBytes;
  Cfg.MaxTenants = NumTenants;
  Cfg.MinGrantBytes = MinGrantBytes;
  Cfg.WarmStart = true;
  // One client keeps one session in flight, so one worker suffices; more
  // would only add hand-offs between threads.
  Cfg.Workers = 1;
  Cfg.AdmissionWindow = AdmissionWindow;

  std::optional<service::EngineServer> Server;
  P.CreateMs += T.time("service.create", [&] {
    Server.emplace(Cfg);
    for (const Tenant &Tn : Tenants)
      Server->registerTenant(Tn.Workload, Tn.Program, Opts, Model,
                             Tn.RequestBytes);
  });

  LayerCounts Counts;
  Digest D;
  uint64_t Warm = 0;
  for (size_t I = 0; I != Trace.size(); ++I) {
    const Tenant &Tn = Tenants[Trace[I]];
    std::string What = "session " + std::to_string(I) + " (" + Tn.Workload + ")";
    std::vector<service::SessionResult> Rs;
    double Ms =
        T.time("service.session", [&] { Rs = Server->runTrace({Trace[I]}); });
    P.SessionMs["session " + std::to_string(I)] = Ms;
    ++P.Attempted;
    if (Rs.size() != 1) {
      P.fail(What, "runTrace returned " + std::to_string(Rs.size()) +
                        " results");
      continue;
    }
    const service::SessionResult &R = Rs[0];
    P.GuestInstrs += R.Run.InstructionCount;
    if (!R.EngineError.empty()) {
      P.fail(What, "engine error: " + R.EngineError);
      continue;
    }
    if (!R.SnapshotError.empty()) {
      P.fail(What, "snapshot error: " + R.SnapshotError);
      continue;
    }
    std::string Diff = compareRuns(Tn.Ref.Run, R.Run);
    if (!Diff.empty()) {
      P.fail(What, "differs from the tenant's reference run: " + Diff);
      continue;
    }
    P.Slowdowns.push_back(static_cast<double>(R.TotalCycles) /
                          static_cast<double>(Tn.NativeCycles));
    Counts.addStats(R.Stats, R.CyclesByCategory);
    Warm += R.Warm ? 1 : 0;
    D.add(R.Tenant).add(R.Warm).add(R.GrantBytes).add(R.TotalCycles);
    for (uint64_t C : R.CyclesByCategory)
      D.add(C);
    D.addObject(R.Stats);
    addPluginMetrics(D, R.PluginMetrics);
  }

  const service::GlobalCacheArbiter &Arb = Server->arbiter();
  uint64_t SnapshotBytes = Server->snapshots().storedBlobBytes();
  D.add(Arb.reclaims()).add(SnapshotBytes);
  P.Digest = D.value();
  P.Layer["service.warm_session_share"] =
      static_cast<double>(Warm) / static_cast<double>(Trace.size());
  P.Layer["service.reclaims"] = static_cast<double>(Arb.reclaims());
  P.Layer["service.snapshot_bytes"] = static_cast<double>(SnapshotBytes);

  if (Traced)
    replaySnapshots(*Server, T, P, Counts);
  Counts.emit(P.Layer);
  return P;
}

void ServiceWorkload::replaySnapshots(service::EngineServer &Server,
                                      Tracer &T, PassStats &P,
                                      LayerCounts &Counts) {
  const uint32_t OptionsFp = service::optionsFingerprint(Opts);
  for (uint32_t Id = 0; Id != Tenants.size(); ++Id) {
    const std::vector<uint8_t> *Blob = Server.snapshots().lookup(Id);
    if (!Blob)
      continue;
    const Tenant &Tn = Tenants[Id];
    std::string What = "snapshot replay (" + Tn.Workload + ")";
    ++P.Attempted;
    std::optional<Expected<service::SnapshotInfo>> Info;
    P.Layer["service.snapshot_decode_ms"] += T.time("service.decode", [&] {
      Info.emplace(service::decodeSnapshot(
          *Blob, OptionsFp, service::programFingerprint(Tn.Program)));
    });
    if (!*Info) {
      P.fail(What, "decode: " + Info->error().message());
      continue;
    }

    core::SdtOptions ReplayOpts = Opts;
    ReplayOpts.FragmentCacheBytes = std::max(Tn.RequestBytes, MinGrantBytes);
    // Timed replay, then the same replay without a timing model: the
    // difference is the arch models' share of the session's engine time.
    for (bool Timed : {true, false}) {
      arch::TimingModel Timing(Model);
      vm::ExecOptions Exec;
      Exec.Timing = Timed ? &Timing : nullptr;
      std::optional<Expected<std::unique_ptr<core::SdtEngine>>> E;
      double CreateMs = T.time("core.create", [&] {
        E.emplace(core::SdtEngine::create(Tn.Program, ReplayOpts, Exec));
      });
      if (!*E) {
        P.fail(What, E->error().message());
        break;
      }
      core::SdtEngine &Engine = ***E;
      double PrewarmMs =
          T.time("core.prewarm", [&] { Engine.prewarm((**Info).Image); });
      vm::RunResult R;
      double RunMs = T.time(Timed ? "core.run" : "core.ref_run",
                            [&] { R = Engine.run(); });
      if (!Timed) {
        P.Layer["core.ref_ms"] += RunMs;
        continue;
      }
      P.Layer["core.create_ms"] += CreateMs;
      P.Layer["core.prewarm_ms"] += PrewarmMs;
      P.Layer["core.run_ms"] += RunMs;
      P.Layer["_sdt_instrs"] += static_cast<double>(R.InstructionCount);
      EndState Got = captureEndState(R, Engine.state(), &Engine.memory());
      P.Layer["core.stale_pc_runs"] += Got.Pc != Tn.Ref.Pc ? 1 : 0;
      std::string Diff = compareEndStates(Tn.Ref, Got);
      if (!Diff.empty()) {
        P.fail(What, "differs from the tenant's reference run: " + Diff);
        break;
      }
      Counts.addEngine(Engine, Timing);
    }
  }
}

} // namespace

std::unique_ptr<Workload> perfbench::makeServiceWorkload(uint64_t Seed) {
  return std::make_unique<ServiceWorkload>(Seed);
}
