//===- ivclass/Pipeline.cpp - Source-to-analysis facade -------------------------===//

#include "ivclass/Pipeline.h"
#include "frontend/Lowering.h"
#include "ssa/SCCP.h"
#include "ssa/SSAVerifier.h"
#include <cstdio>
#include <cstdlib>

using namespace biv;
using namespace biv::ivclass;

std::optional<AnalyzedProgram>
biv::ivclass::parseSource(std::string_view Source,
                          std::vector<std::string> &Errors) {
  std::unique_ptr<ir::Function> F = frontend::parseAndLower(Source, Errors);
  if (!F)
    return std::nullopt;
  return buildSSAForm(std::move(F));
}

AnalyzedProgram
biv::ivclass::buildSSAForm(std::unique_ptr<ir::Function> F) {
  AnalyzedProgram P;
  P.F = std::move(F);
  // One tree per unit: SSA construction, its verification and the analysis
  // half all run on this CFG.
  P.F->recomputePreds();
  P.DT = std::make_unique<analysis::DominatorTree>(*P.F);
  P.Info = ssa::buildSSA(*P.F, *P.DT);
  ssa::verifySSAOrDie(*P.F, *P.DT);
  return P;
}

void biv::ivclass::analyzeParsed(AnalyzedProgram &P,
                                 const PipelineOptions &Opts) {
  if (Opts.RunSCCP) {
    // Fold-only: branch pruning could delete the loops under analysis.
    ssa::runSCCP(*P.F, /*SimplifyCFG=*/false);
    if (Opts.VerifyEach)
      ssa::verifySSAOrDie(*P.F, *P.DT);
  }
  P.LI = std::make_unique<analysis::LoopInfo>(*P.F, *P.DT);
  P.IA = std::make_unique<InductionAnalysis>(*P.F, *P.DT, *P.LI,
                                             Opts.Analysis);
  P.IA->run();
}

std::optional<AnalyzedProgram>
biv::ivclass::analyzeSource(std::string_view Source,
                            std::vector<std::string> &Errors,
                            const PipelineOptions &Opts) {
  std::optional<AnalyzedProgram> P = parseSource(Source, Errors);
  if (P)
    analyzeParsed(*P, Opts);
  return P;
}

AnalyzedProgram
biv::ivclass::analyzeSourceOrDie(std::string_view Source,
                                 const PipelineOptions &Opts) {
  std::vector<std::string> Errors;
  std::optional<AnalyzedProgram> P = analyzeSource(Source, Errors, Opts);
  if (P)
    return std::move(*P);
  std::fprintf(stderr, "analyzeSource failed:\n");
  for (const std::string &E : Errors)
    std::fprintf(stderr, "  %s\n", E.c_str());
  std::abort();
}
