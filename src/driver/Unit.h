//===- driver/Unit.h - One unit through the analysis ------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one path from a function's source text to its classification
/// report, shared by the batch driver's workers and the analysis daemon,
/// and the one encoding of the switches that shape that report.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_DRIVER_UNIT_H
#define BEYONDIV_DRIVER_UNIT_H

#include "cache/AnalysisCache.h"
#include "ivclass/Pipeline.h"
#include "ivclass/Report.h"

namespace biv {
namespace driver {

/// The switches that change a unit's result bytes.  bits() is both the
/// cache key's options fingerprint and the daemon protocol's option word:
///
///   RunSCCP | MaterializeExitValues<<1 | Classify<<2 | Report.AllValues<<3
///   | 1<<4 | Summarize<<5
///
/// Bit 4 is always set: it once selected nested-tuple rendering, which
/// every caller asked for, and keeping it keeps cache keys and the wire
/// unchanged.  The defaults are `bivc --batch`'s (bits() == 21).
struct AnalysisOptions {
  bool RunSCCP = true;
  /// Exit-value materialization mutates the IR; with it off run() only
  /// reads the IR.
  bool MaterializeExitValues = false;
  /// Render a classification report (off for pure throughput runs).
  bool Classify = true;
  /// Multi-branch loop summarization (`--summarize`): sample, conjecture,
  /// and prove per-phase closed forms for punted loops.
  bool Summarize = false;
  ivclass::ReportOptions Report;

  uint64_t bits() const;
  /// Inverse of bits(); bit 4 and bits above 5 are ignored.
  static AnalysisOptions fromBits(uint64_t Bits);
  /// What one-shot `bivc FILE` runs, and so what `--connect` sends: the
  /// defaults plus exit-value materialization (bits() == 23).
  static AnalysisOptions oneShot();
  /// The pipeline half of these switches.  Post-SCCP re-verification is
  /// off: it cannot change a result, only cost time.
  ivclass::PipelineOptions pipeline() const;
};

/// What one unit produced.
struct UnitOutcome {
  /// False when the source did not parse or lower; Errors says why.
  bool OK = false;
  std::vector<std::string> Errors;
  /// The report, stats, kind counts and sizes.  Result.Counters is filled
  /// only on a cache miss.
  cache::CacheEntry Result;
  /// Non-zero only when a cache was probed and missed: Result is the entry
  /// to insert under this digest.
  uint64_t MissDigest = 0;
};

/// Runs one unit: parse, then (with \p Cache) digest the canonical IR under
/// Opts.bits() and probe.  A hit replays the stored analysis-phase counters
/// (never timers) and returns the stored result.  Otherwise the analysis
/// half and the report run, and a miss records the analysis-phase counter
/// delta in Result.  Inserting a miss is left to the caller, which decides
/// when.  \p Cache may be null; \p Text is only read during the call.
UnitOutcome analyzeUnit(std::string_view Text, const AnalysisOptions &Opts,
                        cache::AnalysisCache *Cache);

} // namespace driver
} // namespace biv

#endif // BEYONDIV_DRIVER_UNIT_H
