//===- perfbench/Bench.h - Workload interface and pass results --*- C++ -*-===//
//
// Part of StrataIB.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload is set up once per run (several times, to time set-up) and
/// then executed in passes until the run's time is used. Every pass does
/// the same modeled work; the seed only orders it (and, for `service`,
/// fixes the tenant trace), so modeled results repeat exactly from pass to
/// pass and from run to run.
///
//===----------------------------------------------------------------------===//

#ifndef STRATAIB_PERFBENCH_BENCH_H
#define STRATAIB_PERFBENCH_BENCH_H

#include "Spans.h"

#include "arch/Timing.h"
#include "core/SdtEngine.h"

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What one pass produced.
struct PassStats {
  /// The timed section, one entry per timed call, keyed by a name that
  /// identifies the same work in every pass: the native baseline of each
  /// program, and each session (a cell's translated run plus its trace
  /// export, or a service session).
  std::map<std::string, double> NativeMs;
  std::map<std::string, double> SessionMs;
  /// Host time creating this pass's VMs, engines, plugin managers, sinks
  /// or server (outside the timed section; part of set-up).
  double CreateMs = 0;
  /// Guest instructions retired under timing.
  uint64_t GuestInstrs = 0;
  /// Modeled SDT cycles / native cycles, per cell or session.
  std::vector<double> Slowdowns;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Modeled-identity digest of everything the pass modeled.
  uint64_t Digest = 0;
  /// Per-layer metrics (exact counts; host times on traced passes only).
  std::map<std::string, double> Layer;

  /// Counts a failed run or session and reports it on stderr.
  void fail(const std::string &What, const std::string &Why);
};

class Workload {
public:
  virtual ~Workload() = default;
  /// One set-up repetition: builds the programs (and, for `service`, runs
  /// the sizing probes and tenant reference runs). Adds the host time of
  /// its library calls to \p Ms. Returns false after reporting a failure
  /// on stderr.
  virtual bool setup(Tracer &T, double &Ms) = 0;
  /// One pass. A traced pass adds the untimed differencing runs behind
  /// the arch.*_model_ms metrics and reports per-layer host times.
  /// \p CheckMemory adds guest memory to the end-state checks (it costs
  /// about as much as a short run, so only the first pass pays it).
  virtual PassStats runPass(Tracer &T, bool Traced, bool CheckMemory) = 0;
};

std::unique_ptr<Workload> makeCellWorkload(const std::string &Name,
                                           uint64_t Seed,
                                           const std::string &WorkDir);
std::unique_ptr<Workload> makeServiceWorkload(uint64_t Seed);

/// Exact modeled and engine counts summed over the runs of one pass; emit()
/// turns them into the count and ratio per-layer metrics.
class LayerCounts {
public:
  /// Counters kept in SdtStats, plus cycles by category.
  void addStats(const sdt::core::SdtStats &S,
                const std::array<uint64_t, static_cast<size_t>(
                                               sdt::arch::CycleCategory::
                                                   NumCategories)> &Cycles);
  /// Counters that need the engine and timing-model objects: cache and
  /// predictor counts, main-handler hits, execution-plan statistics.
  void addEngine(sdt::core::SdtEngine &E, const sdt::arch::TimingModel &T);

  void emit(std::map<std::string, double> &Out) const;

private:
  std::map<std::string, uint64_t> Sums;
};

/// The cycles-by-category array of \p T.
std::array<uint64_t,
           static_cast<size_t>(sdt::arch::CycleCategory::NumCategories)>
cyclesByCategory(const sdt::arch::TimingModel &T);

} // namespace perfbench

#endif // STRATAIB_PERFBENCH_BENCH_H
