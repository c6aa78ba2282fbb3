//===- ivclass/Pipeline.h - Source-to-analysis facade -----------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place the pipeline is put together: parse a loop-language
/// program, build SSA, optionally run constant propagation, and run the
/// induction-variable analysis.  One-shot `bivc`, the batch driver, the
/// daemon, the fuzz oracle, tests and examples all come through here.  The
/// returned bundle keeps every intermediate structure alive (the analysis
/// holds references into them).
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_PIPELINE_H
#define BEYONDIV_IVCLASS_PIPELINE_H

#include "analysis/DominatorTree.h"
#include "analysis/LoopInfo.h"
#include "ivclass/InductionAnalysis.h"
#include "ssa/SSABuilder.h"
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace biv {
namespace ivclass {

/// Everything produced by analyzing one program.
struct AnalyzedProgram {
  std::unique_ptr<ir::Function> F;
  ssa::SSAInfo Info;
  std::unique_ptr<analysis::DominatorTree> DT;
  std::unique_ptr<analysis::LoopInfo> LI;
  std::unique_ptr<InductionAnalysis> IA;
};

/// Pipeline switches.
struct PipelineOptions {
  /// Run Wegman-Zadeck constant propagation (fold-only) before the IV
  /// analysis, as the paper suggests for resolving initial values.
  bool RunSCCP = true;
  /// Re-verify SSA after each mutating stage (post-SCCP).  On by default so
  /// tests catch pass bugs at the stage that introduced them; the entry
  /// points that print results (driver::AnalysisOptions::pipeline()) turn
  /// it off -- the initial post-construction verify always runs.
  bool VerifyEach = true;
  InductionAnalysis::Options Analysis;
};

/// Frontend half of analyzeSource: parse and lower (frontend::parseAndLower),
/// then buildSSAForm.  Split out so the batch driver can hash the canonical
/// IR print and probe the analysis cache before paying for the analysis
/// half.  \p Source is only read during the call.
std::optional<AnalyzedProgram> parseSource(std::string_view Source,
                                           std::vector<std::string> &Errors);

/// Second step of parseSource, for a function a caller lowered (and
/// perhaps transformed, as `bivc --peel` does) itself: build the dominator
/// tree, then SSA on it, and verify it.  Fills F, Info and DT; LI/IA stay
/// null until analyzeParsed() runs.
AnalyzedProgram buildSSAForm(std::unique_ptr<ir::Function> F);

/// Analysis half: optional constant propagation, loops, and the
/// induction-variable analysis, in place on a parseSource() result.  The
/// dominator tree is parseSource()'s: SSA construction and fold-only
/// constant propagation leave the CFG as it was.
void analyzeParsed(AnalyzedProgram &P,
                   const PipelineOptions &Opts = PipelineOptions());

/// Parses and analyzes \p Source (parseSource + analyzeParsed).  On error
/// returns an empty optional and fills \p Errors.
std::optional<AnalyzedProgram>
analyzeSource(std::string_view Source, std::vector<std::string> &Errors,
              const PipelineOptions &Opts = PipelineOptions());

/// Like analyzeSource but aborts with diagnostics (for known-good inputs).
AnalyzedProgram analyzeSourceOrDie(std::string_view Source,
                                   const PipelineOptions &Opts =
                                       PipelineOptions());

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_PIPELINE_H
