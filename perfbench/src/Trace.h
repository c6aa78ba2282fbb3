//===- perfbench/src/Trace.h - Spans around public calls --------*- C++ -*-===//
///
/// \file
/// The traced run's span recorder.  A span covers one call into a layer's
/// public function, made from the benchmark's own code: name, start, end,
/// parent span, unit id, and the calling thread's CPU time at both ends.
/// Spans stay in memory and are written out when the run ends.  The
/// program under test carries no instrumentation of its own for this.
///
/// Span names are `<layer>.<call>`; the layer is the text before the first
/// dot.  Per-unit root spans are named `unit`.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

class Tracer {
public:
  static constexpr uint32_t NoParent = ~0u;

  struct Span {
    std::string Name;
    uint32_t Parent;
    uint32_t Unit;
    uint64_t Start, End;       ///< wall ns
    uint64_t CpuStart, CpuEnd; ///< calling thread's CPU ns
  };

  /// Totals over every span of one name.
  struct Agg {
    uint64_t Count = 0;
    uint64_t WallNs = 0; ///< span durations
    uint64_t SelfNs = 0; ///< durations minus time covered by child spans
    uint64_t CpuNs = 0;  ///< thread CPU inside the span, children excluded
  };

  /// Opens a span on the calling thread; the innermost open span of this
  /// thread becomes its parent.
  uint32_t begin(const std::string &Name, uint32_t Unit);
  void end(uint32_t Id);

  /// Aggregates every span by name.
  std::map<std::string, Agg> byName() const;
  /// Aggregates by layer (span name up to the first dot) the spans under
  /// `unit` roots only: the entry point's own path, without the probes.
  std::map<std::string, Agg> byLayer() const;

  /// Writes every span as JSON lines to \p Path.
  bool write(const std::string &Path) const;
  /// Appends the spans another process wrote with write(), renumbered
  /// after this tracer's own and tagged with \p Unit; false when the
  /// file cannot be read.
  bool load(const std::string &Path, uint32_t Unit);

private:
  std::map<std::string, Agg> aggregate(bool UnitOnly) const;

  mutable std::mutex M;
  std::vector<Span> Spans;
};

/// RAII span; does nothing when the tracer is null (the untraced replay
/// runs the identical code with no recorder).
class Scope {
public:
  Scope(Tracer *T, const char *Name, uint32_t Unit)
      : T(T), Id(T ? T->begin(Name, Unit) : 0) {}
  ~Scope() {
    if (T)
      T->end(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  uint32_t Id;
};

} // namespace pb

#endif // PERFBENCH_TRACE_H
