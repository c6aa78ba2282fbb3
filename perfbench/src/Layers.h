//===- perfbench/src/Layers.h - Replays and layer metrics -------*- C++ -*-===//
///
/// \file
/// The sequences of public calls each entry point makes for one unit,
/// replayed by the harness so every call can be wrapped in a span, plus the
/// probes and the arithmetic that turn spans into per-layer metrics.  The
/// one-shot replay runs in a fresh process per unit (`perfbench
/// --replay-unit`), as bivc does: in a long-lived process the same calls
/// ran about 30% faster on the deepest nests, and the dependence report,
/// whose records follow Array addresses, came out in another order.
///
///  - OneShot: `tools/bivc.cpp`'s default path -- parseAndLower, buildSSA,
///    verifySSAOrDie, runSCCP (no CFG simplification), DominatorTree,
///    LoopInfo, InductionAnalysis::run (exit values materialized), report,
///    and DependenceAnalyzer for `--deps` inputs.
///  - Batch: driver::analyzeBatch's unit with `--batch` defaults --
///    parseSource, runSCCP, DominatorTree, LoopInfo, run() with
///    materialization off, countHeaderPhiKinds, report.
///  - Served: server::Server's analyze handler with the one-shot option
///    bits -- parseSource, digest, lookup (refreshIfChanged on a miss),
///    then on a miss the analysis, countHeaderPhiKinds, report, insert and
///    a save every CacheFlushEvery pending entries.  The server probe
///    times its hits in process to split a round trip into handler work
///    and transport.
///
/// With a null tracer the same code runs with no recorder, which is how the
/// traced run measures its own overhead.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Gen.h"
#include "Measure.h"
#include "Trace.h"
#include <cstdint>
#include <string>
#include <vector>

namespace biv::cache {
class AnalysisCache;
}

namespace pb {

enum class Path { OneShot, Batch, Served };

/// The option bits `bivc --connect` sends: SCCP, exit-value
/// materialization, classification, nested tuples.
inline constexpr uint64_t OneShotBits = 1 | 2 | 4 | 16;
/// The server's default mid-flight flush cadence (ServerOptions).
inline constexpr size_t FlushEvery = 64;

/// What one replayed unit produced.
struct Replay {
  bool OK = false;
  std::string Output; ///< report text (plus the dependence report)
  uint64_t Instrs = 0; ///< IR instructions after SSA construction
  uint64_t Blocks = 0;
  uint64_t Loops = 0;
  uint64_t HeaderPhis = 0;
  uint64_t Classified = 0;
  uint64_t Pairs = 0;
  uint64_t Independent = 0;
  bool Analyzed = false; ///< false for a served cache hit
  bool Hit = false;
};

/// Runs \p U through \p P's sequence of public calls.  \p Deps adds the
/// dependence analysis (one-shot `--deps`).  \p Cache, the served
/// handler's cache, is required for Served.
Replay replayUnit(const Unit &U, Path P, bool Deps, uint32_t UnitId,
                  Tracer *T, biv::cache::AnalysisCache *Cache = nullptr);

/// Times InductionAnalysis::run on fresh copies of \p U with exit-value
/// materialization on and off (spans `ivclass.run_materialize_on/off`).
void materializeSplit(const Unit &U, uint32_t UnitId, Tracer &T);

/// Sums of the counts the per-layer denominators need.
struct Totals {
  uint64_t ParsedInstrs = 0, AnalyzedInstrs = 0, Blocks = 0,
           Loops = 0, HeaderPhis = 0, Classified = 0, Pairs = 0,
           Independent = 0, IRBytes = 0, Hits = 0, Lookups = 0,
           MaterializeInstrs = 0;
  void add(const Replay &R);
};

/// Cache layer probe for workloads whose entry point runs with the cache
/// off: the served handler's cache calls over \p Units (digest, miss
/// lookup + refresh, insert, periodic save, then a hit lookup each) on a
/// fresh file under \p Dir.  Adds to \p Tot's digest and lookup counts and
/// returns the file's size.
uint64_t probeCache(const std::vector<Unit> &Units, const std::string &Dir,
                Tracer &T, Totals &Tot);

/// Dependence probe: DependenceAnalyzer::analyze on each unit of \p Units
/// after the one-shot analysis.  Adds pair counts to \p Tot.
void probeDeps(const std::vector<Unit> &Units, Tracer &T, Totals &Tot);

/// Server-side numbers a traced run reports.
struct ServerNumbers {
  double IdleRttUs = 0;
  double InProcessHitUs = 0;
  double CodecNsPerByte = 0;
  double WaitMsP50 = 0; ///< loaded p50 minus idle round trip
  double LagMsP99 = 0;
  uint64_t Overloaded = 0, Deadline = 0, TransportErrors = 0;
};

/// Writes every per-layer metric into \p O from the spans in \p T, the
/// counts in \p Tot, the driver's parallel efficiency and the server
/// numbers, and prints the per-layer self / CPU / wait table.
void emitLayerMetrics(const Tracer &T, const Totals &Tot, double ParallelEff,
                      uint64_t DriverUnits, uint64_t DriverFailed,
                      uint64_t CacheFileBytes, const ServerNumbers &S,
                      Outcome &O);

} // namespace pb

#endif // PERFBENCH_LAYERS_H
