//===- perfbench/State.h - Full-state checks and identity digests -*- C++ -*-=//
//
// Part of StrataIB.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two kinds of exactness the benchmark enforces:
///  * transparency: a translated run ends in the same architectural state
///    as the reference interpreter (exit, fault, output, checksum,
///    instruction and CTI counts, every register, and guest memory; the
///    final pc is compared but only counted, see compareEndStates);
///  * modeled identity: every modeled count (cycles by category, SdtStats,
///    IB-handler lookups and hits, cache and predictor counts, plugin
///    metrics) folds into a digest that must repeat bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef STRATAIB_PERFBENCH_STATE_H
#define STRATAIB_PERFBENCH_STATE_H

#include "arch/Timing.h"
#include "core/SdtEngine.h"
#include "isa/Registers.h"
#include "vm/GuestMemory.h"
#include "vm/GuestState.h"
#include "vm/RunResult.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

/// The architectural end state of one run.
struct EndState {
  sdt::vm::RunResult Run;
  std::array<uint32_t, sdt::isa::NumRegisters> Regs{};
  uint32_t Pc = 0;
  std::optional<uint64_t> MemoryDigest; ///< When memory was captured.
};

/// Captures \p State, and a digest of \p Memory unless it is null.
EndState captureEndState(sdt::vm::RunResult Run,
                         const sdt::vm::GuestState &State,
                         const sdt::vm::GuestMemory *Memory);

/// Empty when the two runs' observable results agree, else the first
/// difference.
std::string compareRuns(const sdt::vm::RunResult &Ref,
                        const sdt::vm::RunResult &Got);

/// compareRuns plus registers, and guest memory when both sides captured
/// it. The final pc is left to
/// the caller: SdtEngine never writes GuestState::Pc back (it keeps the
/// entry pc), so a pc mismatch is counted as a known defect
/// (core.stale_pc_runs), not as a failed run.
std::string compareEndStates(const EndState &Ref, const EndState &Got);

/// An order-sensitive 64-bit digest.
class Digest {
public:
  Digest &add(uint64_t V);
  Digest &add(std::string_view S);

  /// Folds the whole object representation of \p V, so every field of a
  /// counter block is covered without a hand-kept field list.
  template <typename T> Digest &addObject(const T &V) {
    static_assert(std::has_unique_object_representations_v<T>,
                  "padding bytes would make the digest nondeterministic");
    static_assert(sizeof(T) % sizeof(uint64_t) == 0);
    for (size_t Off = 0; Off != sizeof(T); Off += sizeof(uint64_t)) {
      uint64_t W = 0;
      std::memcpy(&W, reinterpret_cast<const char *>(&V) + Off, sizeof(W));
      add(W);
    }
    return *this;
  }

  uint64_t value() const { return H; }

private:
  uint64_t H = 0x5354524154414942ULL;
};

/// Cycles by category plus I-/D-cache and predictor counts.
void addTiming(Digest &D, const sdt::arch::TimingModel &T);

/// SdtStats plus lookups and hits of every IB handler (and the handlers
/// they wrap).
void addEngine(Digest &D, sdt::core::SdtEngine &E);

void addPluginMetrics(Digest &D,
                      const std::vector<std::pair<std::string, uint64_t>> &M);

} // namespace perfbench

#endif // STRATAIB_PERFBENCH_STATE_H
