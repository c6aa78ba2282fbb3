//===- dependence/SubscriptExpr.cpp - Classified subscripts --------------------===//

#include "dependence/SubscriptExpr.h"

using namespace biv;
using namespace biv::dependence;

std::string LinearSubscript::str(const SymbolNamer &Namer) const {
  std::string Out = Const.str(Namer);
  for (const auto &[L, C] : Coeff) {
    if (C.isZero())
      continue;
    std::string CS = C.str(Namer);
    if (CS.find(' ') != std::string::npos)
      CS = "(" + CS + ")";
    Out += " + " + CS + "*h(";
    Out += L->name();
    Out += ")";
  }
  return Out;
}

namespace {

/// Expands every symbol of \p A that is itself a linear IV of an enclosing
/// loop; adds results into \p Out.  Returns false when a symbol has a
/// non-affine classification (the subscript is not linear across the nest).
bool expandAffine(ivclass::InductionAnalysis &IA, const Affine &A,
                  Rational Scale, LinearSubscript &Out, unsigned Depth) {
  if (Depth == 0)
    return false;
  Out.Const += Affine(A.constantPart() * Scale);
  for (const auto &[Sym, C] : A.terms()) {
    Rational SC = C * Scale;
    const auto *V = static_cast<const ir::Value *>(Sym);
    const analysis::Loop *SymLoop = nullptr;
    if (const auto *I = ir::dyn_cast<ir::Instruction>(V))
      SymLoop = IA.loopInfo().loopFor(I->parent());
    if (!SymLoop) {
      Out.Const += Affine::symbol(Sym) * SC;
      continue;
    }
    const ivclass::Classification &SymC = IA.classify(V, SymLoop);
    if (SymC.isInvariant()) {
      Out.Const += Affine::symbol(Sym) * SC;
      continue;
    }
    if (!SymC.isLinear())
      return false;
    // coeff * (init + step*h_SymLoop): recurse into init, add to the loop's
    // counter coefficient.
    std::optional<Affine> StepTerm =
        Affine::mul(SymC.Form.coeff(1), Affine(SC));
    if (!StepTerm)
      return false;
    Out.Coeff[SymLoop] += *StepTerm;
    if (!expandAffine(IA, SymC.Form.coeff(0), SC, Out, Depth - 1))
      return false;
  }
  return true;
}

} // namespace

SubscriptInfo biv::dependence::classifySubscript(ivclass::InductionAnalysis &IA,
                                                 const ir::Value *Sub,
                                                 const analysis::Loop *AtLoop) {
  SubscriptInfo Info;
  Info.Class = AtLoop ? IA.classify(Sub, AtLoop)
                      : IA.classifyExternal(Sub, nullptr);
  if (!Info.Class.isAffineForm())
    return Info;

  LinearSubscript Lin;
  bool OK = true;
  if (AtLoop && Info.Class.isLinear()) {
    Lin.Coeff[AtLoop] = Info.Class.Form.coeff(1);
    OK = expandAffine(IA, Info.Class.Form.coeff(0), Rational(1), Lin, 8);
  } else {
    OK = expandAffine(IA, Info.Class.Form.initialValue(), Rational(1), Lin,
                      8);
  }
  if (OK) {
    // Drop zero coefficients for a canonical shape.
    for (auto It = Lin.Coeff.begin(); It != Lin.Coeff.end();)
      It = It->second.isZero() ? Lin.Coeff.erase(It) : std::next(It);
    Info.Linear = std::move(Lin);
  }
  return Info;
}
