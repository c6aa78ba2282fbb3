//===- ivclass/Report.cpp - Classification report -------------------------------===//

#include "ivclass/Report.h"
#include "ir/Printer.h"
#include "support/Stats.h"
#include <optional>

using namespace biv;
using namespace biv::ivclass;

namespace {
// The per-kind stats counters mirror the lattice.  countHeaderPhiKinds is
// the one accounting site (callers invoke it once per analyzed function:
// the batch driver per unit, bivc once per run), so the `ivclass.kind.*`
// counters always equal the KindCounts the Report is rendered from.
const stats::Counter KindLinear("ivclass.kind.linear");
const stats::Counter KindPolynomial("ivclass.kind.polynomial");
const stats::Counter KindGeometric("ivclass.kind.geometric");
const stats::Counter KindCFinite("ivclass.kind.cfinite");
const stats::Counter KindWrapAround("ivclass.kind.wrap_around");
const stats::Counter KindPeriodic("ivclass.kind.periodic");
const stats::Counter KindMonotonic("ivclass.kind.monotonic");
const stats::Counter KindPhasePeriodic("ivclass.kind.phase_periodic");
const stats::Counter KindInvariant("ivclass.kind.invariant");
const stats::Counter KindUnknown("ivclass.kind.unknown");
// The punt-rate numerator: header phis the analysis gave up on entirely.
// ivclass.punt / sum(ivclass.kind.*) is the tracked punt rate (see
// EXPERIMENTS.md); partial counts closed forms projected out of unsolvable
// regions, i.e. phis that would have been punts before the c-finite
// extension.
const stats::Counter KindPartial("ivclass.kind.partial");
const stats::Counter Punt("ivclass.punt");
} // namespace

std::string biv::ivclass::report(InductionAnalysis &IA,
                                 const ssa::SSAInfo *Info,
                                 const ReportOptions &Opts) {
  const analysis::LoopInfo &LI = IA.loopInfo();
  const SymbolNamer Namer = IA.namer();
  // The printer names every instruction of the function up front; the
  // default report labels header phis by their source variable and never
  // needs it, so it is built on the first label that does.
  std::optional<ir::Printer> P;
  auto nameOf = [&](const ir::Instruction *I) {
    if (!P)
      P.emplace(IA.function());
    return P->nameOf(I);
  };
  std::string Out;
  for (const auto &L : LI.loops()) {
    Out += "loop ";
    Out += L->name();
    Out += " (depth ";
    Out += std::to_string(L->depth());
    Out += "): trip count ";
    Out += IA.tripCount(L).str(Namer);
    Out += '\n';
    auto line = [&](const ir::Instruction *I, std::string_view Label) {
      const Classification &C = IA.classify(I, L);
      Out += "  ";
      Out += Label;
      Out += ": ";
      IA.appendNested(Out, C);
      Out += '\n';
    };
    for (ir::Instruction *Phi : L->header()->phis()) {
      const ir::Var *V = Info ? Phi->variable() : nullptr;
      if (V)
        line(Phi, V->name());
      else
        line(Phi, nameOf(Phi));
    }
    if (Opts.AllValues)
      for (ir::BasicBlock *BB : L->blocks()) {
        if (LI.loopFor(BB) != L)
          continue;
        for (const ir::Instruction *I : *BB) {
          if (I->isPhi() && I->parent() == L->header())
            continue;
          if (I->isTerminator() || I->hasSideEffects())
            continue;
          line(I, nameOf(I));
        }
      }
  }
  return Out;
}

KindCounts biv::ivclass::countHeaderPhiKinds(InductionAnalysis &IA) {
  KindCounts C;
  for (const auto &L : IA.loopInfo().loops())
    for (ir::Instruction *Phi : L->header()->phis()) {
      const Classification &PhiClass = IA.classify(Phi, L);
      if (PhiClass.Partial)
        ++C.Partial;
      switch (PhiClass.Kind) {
      case IVKind::Linear:
        ++C.Linear;
        break;
      case IVKind::Polynomial:
        ++C.Polynomial;
        break;
      case IVKind::Geometric:
        ++C.Geometric;
        break;
      case IVKind::CFinite:
        ++C.CFinite;
        break;
      case IVKind::WrapAround:
        ++C.WrapAround;
        break;
      case IVKind::Periodic:
        ++C.Periodic;
        break;
      case IVKind::Monotonic:
        ++C.Monotonic;
        break;
      case IVKind::PhasePeriodic:
        ++C.PhasePeriodic;
        break;
      case IVKind::Invariant:
        ++C.Invariant;
        break;
      case IVKind::Unknown:
        ++C.Unknown;
        break;
      }
    }
  KindLinear.bump(C.Linear);
  KindPolynomial.bump(C.Polynomial);
  KindGeometric.bump(C.Geometric);
  KindCFinite.bump(C.CFinite);
  KindWrapAround.bump(C.WrapAround);
  KindPeriodic.bump(C.Periodic);
  KindMonotonic.bump(C.Monotonic);
  KindPhasePeriodic.bump(C.PhasePeriodic);
  KindInvariant.bump(C.Invariant);
  KindUnknown.bump(C.Unknown);
  KindPartial.bump(C.Partial);
  Punt.bump(C.Unknown);
  return C;
}
