//===- driver/BatchAnalyzer.h - Parallel batch analysis ---------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch-analysis engine behind `bivc --batch -jN`: shards a set of
/// sources (whole files, split into top-level functions) across a
/// work-stealing thread pool and runs the full pipeline -- parse, SSA, SCCP,
/// induction-variable classification -- on each unit independently.
///
/// Per-loop summarization is embarrassingly parallel across functions
/// because every unit owns its IR, dominator tree, loop nest, and analysis
/// arena outright; nothing is shared but immutable options.  Results are
/// committed into a pre-sized slot per unit and rendered in input order, so
/// the merged report is byte-identical no matter how many workers ran or how
/// the scheduler interleaved them.
///
/// Each unit goes through analyzeUnit (driver/Unit.h), the path the daemon
/// serves requests through too.  By default batch mode keeps
/// InductionAnalysis side-effect-free on the IR (MaterializeExitValues off).
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_DRIVER_BATCHANALYZER_H
#define BEYONDIV_DRIVER_BATCHANALYZER_H

#include "driver/Unit.h"
#include "support/Stats.h"
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace biv {
namespace driver {

/// One named source text (a file, or one function split out of a file).
struct SourceInput {
  std::string Name;
  std::string Text;
};

/// One unit of batch work: a function's text, viewed inside the SourceInput
/// it was split from (valid as long as that input).
struct UnitSource {
  std::string Name;
  std::string_view Text;
};

/// Batch switches: the result-shaping AnalysisOptions plus how to run.
struct BatchOptions : AnalysisOptions {
  /// Worker threads; 1 analyzes serially on the calling thread, 0 picks the
  /// hardware concurrency.
  unsigned Jobs = 1;
  /// Content-addressed result cache (`bivc --batch --cache FILE`), or null
  /// to analyze every unit.  Workers probe it concurrently after parsing
  /// (lookup is const); misses are inserted by the driver thread in input
  /// order once the pool drains, so the cache file bytes are deterministic
  /// for any Jobs value.  Failed units are never cached.
  cache::AnalysisCache *Cache = nullptr;
  /// Test-only: runs at the top of every unit, before its pipeline.  Lets
  /// tests inject a throwing task and assert the batch neither deadlocks
  /// nor drops the unit silently.
  std::function<void(const UnitSource &)> PerUnitHook;
};

/// What one unit produced.
struct UnitResult {
  std::string Name;
  bool OK = false;
  std::vector<std::string> Errors;
  std::string ReportText;
  ivclass::InductionAnalysis::Stats Stats;
  ivclass::KindCounts Kinds;
  size_t Instructions = 0;
  size_t Loops = 0;
  /// Observability delta for this unit alone: the cells of the worker
  /// thread's stats frame that moved during the unit's pipeline.
  stats::SparseFrame StatsDelta;
};

/// Everything a batch run produced, in input order.
struct BatchResult {
  std::vector<UnitResult> Units;
  ivclass::InductionAnalysis::Stats Stats; ///< aggregate over OK units
  ivclass::KindCounts Kinds;               ///< aggregate over OK units
  size_t TotalInstructions = 0;
  size_t TotalLoops = 0;
  unsigned Failed = 0;
  /// Program-wide stats: per-unit deltas summed in input order.  Counter
  /// values (and span counts) are independent of Jobs; only span durations
  /// vary run to run.
  stats::Frame MergedStats;

  /// Merged human-readable report: per-unit sections in input order plus a
  /// summary footer.  Deterministic across thread counts.
  std::string renderText() const;

  /// The same report in pieces, in order, so a caller can write it out
  /// without holding a second copy of every unit's text.
  void render(const std::function<void(std::string_view)> &Emit) const;
};

/// Splits a file that may hold several top-level `func` declarations into
/// one unit per function ("name:funcname"), each viewing its slice of
/// \p File.Text.  A file without a `func` keyword comes back as one unit
/// (the parser will diagnose it).
std::vector<UnitSource> splitFunctions(const SourceInput &File);

/// Analyzes every unit of \p Sources (files are split into functions first)
/// with \p Opts.Jobs workers.
BatchResult analyzeBatch(const std::vector<SourceInput> &Sources,
                         const BatchOptions &Opts = BatchOptions());

} // namespace driver
} // namespace biv

#endif // BEYONDIV_DRIVER_BATCHANALYZER_H
