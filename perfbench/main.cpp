//===- perfbench/main.cpp - The StrataIB benchmark -------------------------===//
//
// Part of StrataIB.
//
// strataib_perfbench --workload <suite|pressure|observed|service>
//                    --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Runs passes of the workload until --seconds have passed (at least
// three), setting it up before the first pass and after each one. Every
// timed call is timed on every pass and reported at its best (see
// BestTimes). With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it alternates untraced and traced passes, reports the
// per-layer metrics of the traced ones, and writes the spans to
// <work-dir>. The last line of output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. The exit code is 0 only when every
// run matched its reference and every pass modeled exactly the same thing.
// No STRATAIB_* environment variable is read.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace perfbench;

namespace {


struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Reported with --trace 0. `pass_rate` is 1 - fail_rate, so that no
/// end-to-end metric is 0 on a correct run.
const MetricDef EndToEnd[] = {
    {"run_s", "s"},
    {"guest_mips", "Minstr/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"modeled_slowdown_geomean", "ratio"},
    {"pass_rate", "share"},
    {"session_ms_p50", "ms"},
    {"session_ms_p90", "ms"},
};

/// Reported with --trace 1.
const MetricDef PerLayer[] = {
    {"workloads.build_ms", "ms"},
    {"workloads.self_ms", "ms"},
    {"vm.create_ms", "ms"},
    {"vm.native_ms", "ms"},
    {"vm.native_mips", "Minstr/s"},
    {"vm.ref_ms", "ms"},
    {"vm.self_ms", "ms"},
    {"arch.native_model_ms", "ms"},
    {"arch.sdt_model_ms", "ms"},
    {"arch.icache_accesses", "count"},
    {"arch.icache_miss_rate", "share"},
    {"arch.dcache_accesses", "count"},
    {"arch.dcache_miss_rate", "share"},
    {"arch.ib_mispredict_rate", "share"},
    {"core.create_ms", "ms"},
    {"core.prewarm_ms", "ms"},
    {"core.run_ms", "ms"},
    {"core.ref_ms", "ms"},
    {"core.sim_mips", "Minstr/s"},
    {"core.self_ms", "ms"},
    {"core.fragments_translated", "count"},
    {"core.fragments_per_minstr", "1/Minstr"},
    {"core.guest_instrs_translated", "count"},
    {"core.dispatch_entries", "count"},
    {"core.links_patched", "count"},
    {"core.ib_execs", "count"},
    {"core.ib_hit_rate", "share"},
    {"core.code_write_invalidations", "count"},
    {"core.stale_pc_runs", "count"},
    {"core.ib_lookup_cycle_share", "share"},
    {"core.translate_cycle_share", "share"},
    {"core.dispatch_cycle_share", "share"},
    {"exec.plan_cell_share", "share"},
    {"exec.plans_built", "count"},
    {"exec.plans_rebuilt", "count"},
    {"exec.legacy_fragments", "count"},
    {"exec.fused_op_share", "share"},
    {"opt.traces_built", "count"},
    {"opt.traces_optimized", "count"},
    {"opt.spec_guard_hit_rate", "share"},
    {"cachemgr.flushes", "count"},
    {"cachemgr.partial_evictions", "count"},
    {"cachemgr.evicted_bytes", "bytes"},
    {"cachemgr.retranslations_after_eviction", "count"},
    {"trace.export_ms", "ms"},
    {"trace.events_recorded", "count"},
    {"trace.dropped_events", "count"},
    {"trace.bytes_written", "bytes"},
    {"trace.self_ms", "ms"},
    {"plugin.instrument_cycle_share", "share"},
    {"plugin.self_ms", "ms"},
    {"service.warm_session_share", "share"},
    {"service.reclaims", "count"},
    {"service.snapshot_bytes", "bytes"},
    {"service.snapshot_decode_ms", "ms"},
    {"service.self_ms", "ms"},
    {"bench.unattributed_ms", "ms"},
    {"bench.untraced_run_ms", "ms"},
    {"bench.traced_run_ms", "ms"},
    {"bench.trace_overhead_ms", "ms"},
};

/// The layers whose self time is reported as "<layer>.self_ms".
const char *const SelfTimeLayers[] = {"workloads", "vm",     "core",
                                      "trace",     "plugin", "service"};

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Linear-interpolation percentile, \p Q in [0, 1].
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0.0; }

/// Pins the process, and the threads it creates later, to the CPU it is
/// running on. The host shares its cores with other machines' work, and a
/// process that moves between CPUs ran up to 30% slower than one that
/// stays; pinning also keeps a `service` session's hand-off to its server
/// worker on one CPU. Returns the CPU, or -1 when pinning failed (the run
/// then continues unpinned).
int pinToCurrentCpu() {
  int Cpu = sched_getcpu();
  if (Cpu < 0)
    return -1;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  return sched_setaffinity(0, sizeof(Set), &Set) == 0 ? Cpu : -1;
}

double peakRssMb() {
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string WorkDir;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      A.Workload = Value;
    } else if (Key == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = !Value.empty() && *End == '\0';
    } else if (Key == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = !Value.empty() && *End == '\0' && A.Seconds > 0;
    } else if (Key == "--trace") {
      A.Trace = Value == "1";
      HaveTrace = Value == "0" || Value == "1";
    } else if (Key == "--work-dir") {
      A.WorkDir = Value;
    } else {
      return false;
    }
  }
  return Argc % 2 == 1 && !A.Workload.empty() && HaveSeed && HaveSeconds &&
         HaveTrace && !A.WorkDir.empty();
}

/// Raw per-layer values of one traced pass plus each layer's self time.
std::map<std::string, double> tracedPassMetrics(const PassStats &P,
                                                const Tracer &T,
                                                int32_t Pass) {
  std::map<std::string, double> M = P.Layer;
  std::map<std::string, double> Self = T.selfMsByLayer(Pass);
  for (const char *L : SelfTimeLayers)
    M[std::string(L) + ".self_ms"] = Self[L];
  M["bench.unattributed_ms"] = Self["bench"];
  return M;
}

/// Adds the metrics derived from the per-layer sums.
void addDerivedMetrics(std::map<std::string, double> &M) {
  M["vm.native_mips"] = ratio(M["_native_instrs"], M["vm.native_ms"] * 1e3);
  M["core.sim_mips"] = ratio(M["_sdt_instrs"], M["core.run_ms"] * 1e3);
  M["core.fragments_per_minstr"] =
      ratio(M["core.fragments_translated"], M["_sdt_instrs"] / 1e6);
  M["arch.native_model_ms"] = M["vm.native_ms"] - M["vm.ref_ms"];
  M["arch.sdt_model_ms"] = M["core.run_ms"] - M["core.ref_ms"];
}

/// Lowers each entry of \p Best to the matching entry of \p Sample,
/// adding the entries \p Best lacks.
void keepMin(std::map<std::string, double> &Best,
             const std::map<std::string, double> &Sample) {
  for (const auto &[Key, V] : Sample) {
    auto [It, New] = Best.emplace(Key, V);
    if (!New)
      It->second = std::min(It->second, V);
  }
}

double sumMs(const std::map<std::string, double> &Ms) {
  double Sum = 0;
  for (const auto &[Key, V] : Ms)
    Sum += V;
  return Sum;
}

/// The fastest time of each timed call over a set of passes. The host
/// shares its cores with other work that comes and goes, so one call's
/// time varies by up to half between passes; its minimum over the passes
/// is what repeats from run to run.
struct BestTimes {
  std::map<std::string, double> Native, Session;

  void add(const PassStats &P) {
    keepMin(Native, P.NativeMs);
    keepMin(Session, P.SessionMs);
  }
  double runMs() const { return sumMs(Native) + sumMs(Session); }
  std::vector<double> sessions() const {
    std::vector<double> V;
    for (const auto &[Key, Ms] : Session)
      V.push_back(Ms);
    return V;
  }
};

void printJsonNumber(double V) { std::printf("%.17g", V); }

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: strataib_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir>\n");
    return 2;
  }
  std::unique_ptr<Workload> W =
      A.Workload == "service" ? makeServiceWorkload(A.Seed)
                              : makeCellWorkload(A.Workload, A.Seed, A.WorkDir);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }

  int Cpu = pinToCurrentCpu();
  Tracer T(A.Trace);
  // Set-up runs before the first pass and again after every pass, so its
  // median samples the whole run rather than one moment of it. Every
  // repetition rebuilds exactly the same state.
  std::vector<double> SetupMs, BuildMs;
  auto setUp = [&]() {
    int32_t Pass = SetupPass - static_cast<int32_t>(SetupMs.size());
    T.setPass(Pass);
    double Ms = 0;
    bool Ok = true;
    {
      SpanScope SetupSpan(T, "bench.setup");
      Ok = W->setup(T, Ms);
    }
    SetupMs.push_back(Ms);
    BuildMs.push_back(T.selfMsByLayer(Pass)["workloads"]);
    return Ok;
  };
  if (!setUp())
    return 1;

  BestTimes Best, TracedBest;
  std::vector<double> PassMs, CreateMs;
  std::map<std::string, double> Layer; // Minimum over traced passes.
  uint64_t Attempted = 0, Failed = 0, GuestInstrs = 0;
  std::vector<double> Slowdowns;
  uint64_t Digest = 0;
  double PeakRssMb = 0;
  bool Identical = true;
  size_t TracedPasses = 0;
  const int MinPasses = A.Trace ? 4 : 3;
  Clock::time_point Start = Clock::now();
  for (int32_t Pass = 0;; ++Pass) {
    double Elapsed =
        std::chrono::duration<double>(Clock::now() - Start).count();
    if (Pass >= MinPasses && Elapsed >= A.Seconds)
      break;
    bool IsTraced = A.Trace && Pass % 2 == 1;
    T.setPass(Pass);
    PassStats P;
    {
      SpanScope PassSpan(T, "bench.pass");
      P = W->runPass(T, IsTraced, /*CheckMemory=*/Pass == 0);
    }
    Attempted += P.Attempted;
    Failed += P.Failed;
    CreateMs.push_back(P.CreateMs);
    if (Pass == 0) {
      Slowdowns = P.Slowdowns;
      Digest = P.Digest;
      GuestInstrs = P.GuestInstrs;
      // Later passes repeat the same work; the heap can still grow by a
      // freed-but-unreusable 16 MB guest memory there, depending on the
      // order, which says nothing about what one sweep needs.
      PeakRssMb = peakRssMb();
    } else if (P.Digest != Digest || P.Slowdowns != Slowdowns) {
      Identical = false;
      std::fprintf(stderr,
                   "perfbench: FAILED pass %d modeled different results "
                   "from pass 0\n",
                   Pass);
    }
    if (!IsTraced) {
      Best.add(P);
      PassMs.push_back(sumMs(P.NativeMs) + sumMs(P.SessionMs));
    } else {
      TracedBest.add(P);
      keepMin(Layer, tracedPassMetrics(P, T, Pass));
      ++TracedPasses;
    }
    if (!setUp())
      return 1;
  }

  double FailRate = ratio(static_cast<double>(Failed),
                          static_cast<double>(Attempted));
  double RunMs = Best.runMs();
  std::map<std::string, double> Metrics;
  if (!A.Trace) {
    std::vector<double> Sessions = Best.sessions();
    Metrics["run_s"] = RunMs / 1e3;
    Metrics["guest_mips"] = ratio(static_cast<double>(GuestInstrs), RunMs * 1e3);
    Metrics["setup_s"] = (median(SetupMs) + median(CreateMs)) / 1e3;
    Metrics["peak_rss_mb"] = PeakRssMb;
    Metrics["modeled_slowdown_geomean"] = geomean(Slowdowns);
    Metrics["pass_rate"] = 1.0 - FailRate;
    Metrics["session_ms_p50"] = percentile(Sessions, 0.5);
    Metrics["session_ms_p90"] = percentile(Sessions, 0.9);
  } else {
    addDerivedMetrics(Layer);
    for (const MetricDef &D : PerLayer)
      Metrics[D.Name] = Layer[D.Name];
    Metrics["workloads.build_ms"] = median(BuildMs);
    Metrics["bench.untraced_run_ms"] = RunMs;
    Metrics["bench.traced_run_ms"] = TracedBest.runMs();
    Metrics["bench.trace_overhead_ms"] =
        Metrics["bench.traced_run_ms"] - Metrics["bench.untraced_run_ms"];
    std::string SpanPath = A.WorkDir + "/spans-" + A.Workload + "-seed" +
                           std::to_string(A.Seed) + ".jsonl";
    if (T.writeJsonl(SpanPath))
      std::printf("spans %s (%zu spans)\n", SpanPath.c_str(),
                  T.spans().size());
  }

  bool Correct = Failed == 0 && Identical && !Slowdowns.empty();

  // --- Report -------------------------------------------------------------
  std::printf("workload %s seed %" PRIu64 " passes %zu untraced + %zu traced,"
              " %zu sessions per pass, %zu set-up repetitions, cpu %d\n",
              A.Workload.c_str(), A.Seed, PassMs.size(), TracedPasses,
              Best.Session.size(), SetupMs.size(), Cpu);
  std::printf("timed section per untraced pass (ms):");
  for (double Ms : PassMs)
    std::printf(" %.1f", Ms);
  std::printf("; sum of best calls %.1f\n", RunMs);
  std::printf("provenance {\"compiler\":\"%s\",\"build_type\":\"%s\","
              "\"cxx_flags\":\"%s\",\"assertions\":\"%s\"}\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
#ifdef NDEBUG
              "off"
#else
              "on"
#endif
  );
  std::printf("identity {\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"digest\":\"%016" PRIx64 "\",\"modeled_slowdown_geomean\":",
              A.Workload.c_str(), A.Seed, Digest);
  printJsonNumber(geomean(Slowdowns));
  std::printf("}\n");
  if (!A.Trace)
    std::printf("metric fail_rate %.6g share (reported as pass_rate = 1 - "
                "fail_rate)\n",
                FailRate);
  const MetricDef *Defs = A.Trace ? PerLayer : EndToEnd;
  size_t NumDefs = A.Trace ? std::size(PerLayer) : std::size(EndToEnd);
  for (size_t I = 0; I != NumDefs; ++I)
    std::printf("metric %s %.6g %s\n", Defs[I].Name, Metrics[Defs[I].Name],
                Defs[I].Unit);

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I != NumDefs; ++I) {
    std::printf("%s\"%s\": {\"value\": ", I ? ", " : "", Defs[I].Name);
    printJsonNumber(Metrics[Defs[I].Name]);
    std::printf(", \"unit\": \"%s\"}", Defs[I].Unit);
  }
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
