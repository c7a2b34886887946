//===- perfbench/State.cpp - Full-state checks and identity digests -------===//
//
// Part of StrataIB.
//
//===----------------------------------------------------------------------===//

#include "State.h"

#include "support/Hashing.h"

using namespace perfbench;
using namespace sdt;

EndState perfbench::captureEndState(vm::RunResult Run,
                                    const vm::GuestState &State,
                                    const vm::GuestMemory *Memory) {
  EndState S;
  S.Run = std::move(Run);
  S.Regs = State.Regs;
  S.Pc = State.Pc;
  if (!Memory)
    return S;
  // FNV-style word hash over every valid address, in four interleaved
  // lanes so the multiplies overlap: cheap enough to run on the full
  // image after every run.
  uint64_t H[4] = {0xcbf29ce484222325ULL, 1, 2, 3};
  const uint32_t Size = Memory->size() & ~15u;
  for (uint32_t A = vm::GuestMemory::PageSize; A < Size; A += 16)
    for (uint32_t L = 0; L != 4; ++L) {
      uint32_t W = 0;
      Memory->load32(A + 4 * L, W);
      H[L] = (H[L] ^ W) * 0x100000001b3ULL;
    }
  S.MemoryDigest = mix64(H[0]) ^ mix64(H[1] + 1) ^ mix64(H[2] + 2) ^
                   mix64(H[3] + 3);
  return S;
}

std::string perfbench::compareRuns(const vm::RunResult &Ref,
                                   const vm::RunResult &Got) {
  if (Got.Reason != Ref.Reason)
    return std::string("exit reason ") + vm::exitReasonName(Got.Reason) +
           " vs " + vm::exitReasonName(Ref.Reason);
  if (Got.ExitCode != Ref.ExitCode)
    return "exit code";
  if (Got.FaultMessage != Ref.FaultMessage)
    return "fault message '" + Got.FaultMessage + "' vs '" +
           Ref.FaultMessage + "'";
  if (Got.Output != Ref.Output)
    return "output";
  if (Got.Checksum != Ref.Checksum)
    return "checksum";
  if (Got.InstructionCount != Ref.InstructionCount)
    return "instruction count " + std::to_string(Got.InstructionCount) +
           " vs " + std::to_string(Ref.InstructionCount);
  if (std::memcmp(&Got.Cti, &Ref.Cti, sizeof(vm::CtiStats)) != 0)
    return "retired CTI counts";
  return std::string();
}

std::string perfbench::compareEndStates(const EndState &Ref,
                                        const EndState &Got) {
  std::string Diff = compareRuns(Ref.Run, Got.Run);
  if (!Diff.empty())
    return Diff;
  for (unsigned R = 0; R != isa::NumRegisters; ++R)
    if (Got.Regs[R] != Ref.Regs[R])
      return "register r" + std::to_string(R);
  if (Got.MemoryDigest && Ref.MemoryDigest &&
      *Got.MemoryDigest != *Ref.MemoryDigest)
    return "guest memory";
  return std::string();
}

Digest &Digest::add(uint64_t V) {
  H = mix64(H ^ (V + 0x9e3779b97f4a7c15ULL));
  return *this;
}

Digest &Digest::add(std::string_view S) {
  add(S.size());
  for (char C : S)
    H = (H ^ static_cast<uint8_t>(C)) * 0x100000001b3ULL;
  return *this;
}

void perfbench::addTiming(Digest &D, const arch::TimingModel &T) {
  for (size_t C = 0;
       C != static_cast<size_t>(arch::CycleCategory::NumCategories); ++C)
    D.add(T.cycles(static_cast<arch::CycleCategory>(C)));
  D.add(T.icache().hits()).add(T.icache().misses());
  D.add(T.dcache().hits()).add(T.dcache().misses());
  const arch::BranchPredictor &P = T.predictor();
  D.add(P.conditionalMispredicts())
      .add(P.indirectMispredicts())
      .add(P.returnMispredicts())
      .add(P.indirectLookups())
      .add(P.returnLookups());
}

void perfbench::addEngine(Digest &D, core::SdtEngine &E) {
  D.addObject(E.stats());
  for (core::IBHandler *H : E.allHandlers())
    for (; H; H = H->backingHandler())
      D.add(H->name()).add(H->lookups()).add(H->hits());
}

void perfbench::addPluginMetrics(
    Digest &D, const std::vector<std::pair<std::string, uint64_t>> &M) {
  for (const auto &[Name, Value] : M)
    D.add(Name).add(Value);
}
