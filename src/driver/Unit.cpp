//===- driver/Unit.cpp - One unit through the analysis ------------------------===//

#include "driver/Unit.h"
#include "ir/Printer.h"
#include "support/Stats.h"
#include <optional>

using namespace biv;
using namespace biv::driver;

uint64_t AnalysisOptions::bits() const {
  return (RunSCCP ? 1u : 0u) | (MaterializeExitValues ? 2u : 0u) |
         (Classify ? 4u : 0u) | (Report.AllValues ? 8u : 0u) | 16u |
         (Summarize ? 32u : 0u);
}

AnalysisOptions AnalysisOptions::fromBits(uint64_t Bits) {
  AnalysisOptions O;
  O.RunSCCP = (Bits & 1) != 0;
  O.MaterializeExitValues = (Bits & 2) != 0;
  O.Classify = (Bits & 4) != 0;
  O.Report.AllValues = (Bits & 8) != 0;
  O.Summarize = (Bits & 32) != 0;
  return O;
}

AnalysisOptions AnalysisOptions::oneShot() {
  AnalysisOptions O;
  O.MaterializeExitValues = true;
  return O;
}

ivclass::PipelineOptions AnalysisOptions::pipeline() const {
  ivclass::PipelineOptions PO;
  PO.RunSCCP = RunSCCP;
  PO.VerifyEach = false;
  PO.Analysis.MaterializeExitValues = MaterializeExitValues;
  PO.Analysis.Summarize = Summarize;
  return PO;
}

UnitOutcome biv::driver::analyzeUnit(std::string_view Text,
                                     const AnalysisOptions &Opts,
                                     cache::AnalysisCache *Cache) {
  static const stats::Counter NumHits("cache.hit");
  static const stats::Counter NumMisses("cache.miss");
  static const stats::Counter NumBytes("cache.bytes");
  static const stats::Timer CacheTimer("phase.cache");

  UnitOutcome U;
  std::optional<ivclass::AnalyzedProgram> P =
      ivclass::parseSource(Text, U.Errors);
  if (!P)
    return U;
  U.OK = true;
  cache::CacheEntry &R = U.Result;

  uint64_t Digest = 0;
  if (Cache) {
    // The span closes before the hit returns, so a caller that deltas its
    // stats frame around the unit sees the warm run's phase.cache time.
    const cache::CacheEntry *CE = nullptr;
    {
      stats::ScopedSpan Span(CacheTimer);
      Digest = cache::unitDigest(ir::toString(*P->F), Opts.bits());
      CE = Cache->lookup(Digest);
    }
    if (CE) {
      NumHits.bump();
      NumBytes.bump(CE->ReportText.size());
      // Replay the stored unit's analysis-phase counters so merged
      // counters stay corpus-shaped on a warm run.  Timers are *not*
      // replayed: phase spans must reflect work that actually ran (that is
      // how --stats-json proves the skip).
      for (const auto &[Name, V] : CE->Counters)
        stats::bumpNamedCounter(Name, V);
      R = {CE->ReportText, CE->Stats, CE->Kinds, CE->Instructions, CE->Loops,
           {}};
      return U;
    }
    NumMisses.bump();
  }

  // Captured after parse + probe: an entry stores only analysis-phase
  // counter deltas, because a hit still parses (to hash) and those
  // frontend counters fire live.
  std::optional<stats::Frame> PostParse;
  if (Cache)
    PostParse = stats::captureFrame();
  ivclass::analyzeParsed(*P, Opts.pipeline());
  R.Stats = P->IA->stats();
  R.Kinds = ivclass::countHeaderPhiKinds(*P->IA);
  R.Instructions = P->F->instructionCount();
  R.Loops = P->LI->loops().size();
  if (Opts.Classify)
    R.ReportText = ivclass::report(*P->IA, &P->Info, Opts.Report);
  if (Cache) {
    R.Counters = stats::snapshotFrame(
                     stats::sparseDelta(stats::threadFrame(), *PostParse))
                     .Counters;
    U.MissDigest = Digest;
  }
  return U;
}
