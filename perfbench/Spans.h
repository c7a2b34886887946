//===- perfbench/Spans.h - Layer timing and in-memory spans -----*- C++ -*-===//
//
// Part of StrataIB.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark times every call into a library layer from outside, with
/// std::chrono::steady_clock. Tracer::time always returns the call's wall
/// time (the end-to-end metrics are sums of these); when tracing is on it
/// also records a span — layer-qualified name, start, end, parent span and
/// pass id — in memory. Spans are written out once, at the end of the run.
///
//===----------------------------------------------------------------------===//

#ifndef STRATAIB_PERFBENCH_SPANS_H
#define STRATAIB_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Pass id of spans recorded during set-up (before the first pass).
inline constexpr int SetupPass = -1;

struct Span {
  /// "<layer>.<call>", e.g. "core.run"; the layer is the text before the
  /// first dot. Layer "bench" is the benchmark's own code.
  const char *Name = "";
  int64_t StartNs = 0; ///< Relative to the tracer's creation.
  int64_t EndNs = 0;
  int32_t Parent = -1; ///< Index of the enclosing span, -1 at top level.
  int32_t Pass = SetupPass;
};

class Tracer {
public:
  explicit Tracer(bool On) : On(On), Origin(Clock::now()) {}

  void setPass(int32_t P) { Pass = P; }

  /// Opens a span (when tracing) and returns its id, or -1.
  int32_t open(const char *Name);
  /// Closes span \p Id (a no-op for -1). Spans close innermost first.
  void close(int32_t Id);

  /// Runs \p Fn, returning its wall time in milliseconds; records a span
  /// named \p Name around it when tracing.
  template <typename Fn> double time(const char *Name, Fn &&F) {
    int32_t Id = open(Name);
    Clock::time_point Start = Clock::now();
    std::forward<Fn>(F)();
    double Ms = std::chrono::duration<double, std::milli>(Clock::now() - Start)
                    .count();
    close(Id);
    return Ms;
  }

  /// Self time per layer over the spans of pass \p P, in milliseconds:
  /// each span's duration minus the part its direct children cover. The
  /// "bench" layer's self time is the time outside every library layer.
  std::map<std::string, double> selfMsByLayer(int32_t P) const;

  const std::vector<Span> &spans() const { return Spans; }

  /// Writes every span as one JSON object per line.
  bool writeJsonl(const std::string &Path) const;

private:
  int64_t nowNs() const;

  bool On;
  Clock::time_point Origin;
  int32_t Pass = SetupPass;
  std::vector<Span> Spans;
  std::vector<int32_t> Open; ///< Stack of open span ids.
};

/// RAII span for the benchmark's own grouping levels (a pass, a cell).
class SpanScope {
public:
  SpanScope(Tracer &T, const char *Name) : T(T), Id(T.open(Name)) {}
  ~SpanScope() { T.close(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer &T;
  int32_t Id;
};

} // namespace perfbench

#endif // STRATAIB_PERFBENCH_SPANS_H
