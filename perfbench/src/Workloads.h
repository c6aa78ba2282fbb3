//===- perfbench/src/Workloads.h - The workloads ----------------*- C++ -*-===//
///
/// \file
/// One entry per workload.  Each sets up (timed, several times), measures
/// for the configured seconds with tracing off -- or, in a traced run,
/// replays the workload's calls with spans -- checks every output outside
/// the timed region, and writes its metrics into the outcome.  A setup
/// error throws std::runtime_error.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Gen.h"
#include "Layers.h"
#include "Measure.h"
#include "Trace.h"

namespace pb {

void runBatch(const Config &C, Outcome &O);
void runOneShot(const Config &C, Outcome &O);

/// `perfbench --replay-unit FILE --deps 0|1 --trace 0|1 --out PREFIX`: the
/// one-shot replay of one file in a fresh process (as bivc runs it),
/// writing PREFIX.out, PREFIX.counts and, traced, PREFIX.jsonl.
int replayUnitMain(int Argc, char **Argv);

/// Offered rate of the server probe's loaded stretch, in requests per
/// second; fixed, so the loaded figures compare across runs.
inline constexpr double ProbeRps = 800;

/// Server layer numbers for a traced run (no gated entry point serves): an
/// in-process server with \p Units primed into its cache, an idle round
/// trip, the codec, and one second at ProbeRps.
ServerNumbers probeServer(const Config &C, const std::vector<Unit> &Units,
                          Tracer &T, Outcome &O);

/// Runs the interpreter oracle on \p Sample and counts each program as one
/// operation of \p O.
void oracleCheck(const std::vector<Unit> &Sample, Outcome &O);

/// A seeded sample of at most \p N executable units of \p Units.
std::vector<Unit> sampleUnits(const std::vector<Unit> &Units, size_t N,
                              uint64_t Seed);

/// Whether to set up once more: at least three times, and cheap set-ups
/// again until a second is spent (at most 25 times).  setup_s is the median.
inline bool repeatSetup(size_t Done, uint64_t SpentNs) {
  return Done < 3 || (SpentNs < 1000000000ull && Done < 25);
}

/// Stated reconciliation bound: per-unit layer self times must account for
/// the workload's end-to-end time of the same units within this share.  It
/// leaves room for the driver's own per-unit work (about 6% of a -j1 pass),
/// for the replay binary itself (alternating with bivc on the deepest nest,
/// the replay ran 0-20% faster, mean 9%: the two binaries lay out code and
/// heap differently), and for the machine (on a shared 4-vCPU virtual
/// machine, two runs of the deepest nest back to back differed by up to
/// 20%).  Measured residuals were -0.05 to +0.23.
inline constexpr double ResidualBound = 0.35;

/// Rounds of the untraced end-to-end run and the untraced replay a traced
/// run alternates.  The fastest of each enters the reconciliation: on a
/// shared machine interference only slows a run, and single runs of the
/// deepest nest varied by 20% back to back.
inline constexpr int ReconcileRounds = 5;

/// Reports the traced run's reconciliation and overhead, and counts a
/// reconciliation outside ResidualBound as a failed operation.  The
/// accounted time is the layer self time inside `unit` spans scaled by
/// \p UntracedNs / \p TracedNs (the same replay of the same units untraced
/// and traced), which takes the tracing overhead out in proportion; it is
/// compared with \p EndToEndNs.
void reconcile(const Tracer &T, double EndToEndNs, double UntracedNs,
               double TracedNs, Outcome &O);

/// The driver layer's numbers.
struct DriverNumbers {
  double Efficiency = 0;
  uint64_t Units = 0, Failed = 0;
};

/// Driver probe for workloads whose entry point is not the batch driver:
/// driver::analyzeBatch over \p Units at -j1 and at -j\p Jobs (spans
/// `driver.batch_j1` and `driver.batch`); efficiency is the -j1 wall over
/// the -jN wall times the jobs.
DriverNumbers probeDriver(const std::vector<Unit> &Units, unsigned Jobs,
                          Tracer &T);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
