//===- ivclass/TripCount.cpp - Loop trip counts --------------------------------===//

#include "ivclass/TripCount.h"
#include "support/Stats.h"

using namespace biv;
using namespace biv::ivclass;

std::string TripCountInfo::str(const SymbolNamer &Namer) const {
  switch (K) {
  case Kind::Unknown:
    if (MaxCount)
      return "unknown (max " + MaxCount->str(Namer) + ")";
    return "unknown";
  case Kind::Zero:
    return "0";
  case Kind::Finite:
    return Count.str(Namer) + (Guarded ? " (if positive, else 0)" : "");
  case Kind::Infinite:
    return "infinite";
  }
  return "<bad>";
}

namespace {

/// Trip count of a single exit: the first h >= 0 at which the exit fires.
/// May throw RationalOverflow when the margin arithmetic leaves int64 (e.g.
/// bounds near INT64_MIN/MAX); the analyzeExit wrapper below degrades that
/// to Unknown.
TripCountInfo analyzeExitImpl(const analysis::Loop &L,
                              ir::BasicBlock *Exiting,
                              const ClassifyFn &Classify) {
  TripCountInfo Info;
  ir::Instruction *Term = Exiting->terminator();
  if (!Term || Term->opcode() != ir::Opcode::CondBr)
    return Info;
  auto *Cmp = ir::dyn_cast<ir::Instruction>(Term->operand(0));
  if (!Cmp || !Cmp->isCompare())
    return Info;

  // Which way stays in the loop?
  bool TrueStays = L.contains(Term->blocks()[0]);
  bool FalseStays = L.contains(Term->blocks()[1]);
  if (TrueStays == FalseStays)
    return Info; // Not really an exit (or a degenerate branch).

  Classification LC = Classify(Cmp->operand(0));
  Classification RC = Classify(Cmp->operand(1));
  // Resolve wrap-around chains over phase-periodic cores (the shape the
  // summarizer commits for reset variables and rotations): past the
  // accumulated order W the value follows the inner per-phase forms at
  // h - W.  The first W iterations carry no claim, so a count through a
  // W > 0 resolution degrades from exact to an upper bound below.
  unsigned LOrd = 0, ROrd = 0;
  const Classification *LR = &LC, *RR = &RC;
  while (LR->isWrapAround() && LR->Inner && LR->Inner->isPhasePeriodic()) {
    LOrd += LR->WrapOrder;
    LR = LR->Inner;
  }
  while (RR->isWrapAround() && RR->Inner && RR->Inner->isPhasePeriodic()) {
    ROrd += RR->WrapOrder;
    RR = RR->Inner;
  }
  const bool LPhase = LR->isPhasePeriodic();
  const bool RPhase = RR->isPhasePeriodic();
  if ((!LC.isAffineForm() && !LPhase) || (!RC.isAffineForm() && !RPhase))
    return Info;
  ClosedForm A = LPhase ? ClosedForm() : LC.Form;
  ClosedForm B = RPhase ? ClosedForm() : RC.Form;

  // Normalize the *stay* condition to a < b (integer arithmetic: a <= b is
  // a < b+1).  The table in section 5.2, folded with the stay/exit sense.
  ir::Opcode Op = Cmp->opcode();
  if (!TrueStays) {
    switch (Op) { // Negate: stay condition is the false branch.
    case ir::Opcode::CmpEQ:
      Op = ir::Opcode::CmpNE;
      break;
    case ir::Opcode::CmpNE:
      Op = ir::Opcode::CmpEQ;
      break;
    case ir::Opcode::CmpLT:
      Op = ir::Opcode::CmpGE;
      break;
    case ir::Opcode::CmpLE:
      Op = ir::Opcode::CmpGT;
      break;
    case ir::Opcode::CmpGT:
      Op = ir::Opcode::CmpLE;
      break;
    case ir::Opcode::CmpGE:
      Op = ir::Opcode::CmpLT;
      break;
    default:
      return Info;
    }
  }

  Info.ExitBranch = Term;
  Info.ExitingBlock = Exiting;

  // A phase-periodic operand (the summarizer's per-phase closed forms):
  // rewrite both sides as forms in the cycle index c at h = W + K*c + p and
  // take the minimum first-failing h over the phases.  Ordering compares
  // only, fully numeric margins only.  W == 0 claims the exact count; a
  // wrapped core (W > 0) claims an upper bound -- the warmup iterations
  // are outside the proved domain, so the exit may fire earlier but never
  // later than the bound.
  if (LPhase || RPhase) {
    if (Op == ir::Opcode::CmpEQ || Op == ir::Opcode::CmpNE)
      return Info;
    const unsigned K = LPhase ? LR->Period : RR->Period;
    const unsigned W = LPhase ? LOrd : ROrd;
    if (K < 2 || (LPhase && RPhase && (LR->Period != RR->Period || LOrd != ROrd)) ||
        (LPhase && LR->L != &L) || (RPhase && RR->L != &L))
      return Info;
    ClosedForm One = ClosedForm::constant(Affine(1));
    std::optional<int64_t> Best; // first failing h - W across phases
    struct PhaseMargin {
      ClosedForm A, B; // per-phase operand forms (functions of c)
    };
    std::vector<PhaseMargin> Ops(K);
    for (unsigned P = 0; P < K; ++P) {
      std::optional<ClosedForm> AP =
          LPhase ? std::optional<ClosedForm>(LR->PhaseForms[P])
                 : LC.Form.atLinear(int64_t(K), int64_t(W + P));
      std::optional<ClosedForm> BP =
          RPhase ? std::optional<ClosedForm>(RR->PhaseForms[P])
                 : RC.Form.atLinear(int64_t(K), int64_t(W + P));
      if (!AP || !BP)
        return Info;
      Ops[P] = {*AP, *BP};
      ClosedForm E;
      switch (Op) {
      case ir::Opcode::CmpLT:
        E = *BP - *AP;
        break;
      case ir::Opcode::CmpLE:
        // Subtract before the +1, same as the affine path below.
        E = *BP - *AP + One;
        break;
      case ir::Opcode::CmpGT:
        E = *AP - *BP;
        break;
      case ir::Opcode::CmpGE:
        E = *AP - *BP + One;
        break;
      default:
        return Info;
      }
      if (!E.isLinear())
        return Info;
      std::optional<Rational> IC = E.coeff(0).getConstant();
      std::optional<Rational> S = E.coeff(1).getConstant();
      if (!IC || !S)
        return Info;
      // Stay at h = W + K*c + p iff E(c) > 0; c_p = first failing cycle.
      std::optional<int64_t> CP;
      if (!IC->isPositive())
        CP = 0;
      else if (S->isNegative())
        CP = (*IC / -*S).ceil();
      if (CP) {
        int64_t H = int64_t(K) * *CP + int64_t(P);
        if (!Best || H < *Best)
          Best = H;
      }
    }
    if (!Best)
      return Info; // no phase's margin ever fails: possibly infinite
    // Wrap guard: the count reasons over Z but execution wraps int64.
    // Bound every operand's trajectory by evaluating each phase form at
    // the extreme cycle indices reached (|base| >= 1 for every geometric
    // term, so magnitudes peak at the endpoints); overflow throws and the
    // wrapper degrades to Unknown.
    const int64_t CEnd = *Best / int64_t(K) + 1;
    for (unsigned P = 0; P < K; ++P) {
      (void)Ops[P].A.evaluateAt(0);
      (void)Ops[P].B.evaluateAt(0);
      (void)Ops[P].A.evaluateAt(CEnd);
      (void)Ops[P].B.evaluateAt(CEnd);
    }
    if (W > 0) {
      // The wrapped warmup is unverified: the loop exits no later than
      // W + Best, possibly earlier.
      Info.K = TripCountInfo::Kind::Unknown;
      Info.MaxCount = Affine(int64_t(W) + *Best);
    } else if (*Best == 0) {
      Info.K = TripCountInfo::Kind::Zero;
    } else {
      Info.K = TripCountInfo::Kind::Finite;
      Info.Count = Affine(*Best);
    }
    return Info;
  }

  // Equality-controlled loops: stay while a == b or a != b.
  if (Op == ir::Opcode::CmpEQ || Op == ir::Opcode::CmpNE) {
    ClosedForm E = B - A; // zero iff equal
    if (!E.isLinear())
      return Info;
    std::optional<Rational> I0 = E.coeff(0).getConstant();
    std::optional<Rational> S = E.coeff(1).getConstant();
    if (!I0 || !S)
      return Info;
    if (Op == ir::Opcode::CmpEQ) {
      // Stay while equal: exits at the first h with E(h) != 0.
      if (!I0->isZero())
        Info.K = TripCountInfo::Kind::Zero;
      else if (S->isZero())
        Info.K = TripCountInfo::Kind::Infinite;
      else {
        Info.K = TripCountInfo::Kind::Finite;
        Info.Count = Affine(1); // E(0)==0, E(1)!=0.
      }
      return Info;
    }
    // Stay while different: exits at the first h with E(h) == 0.
    if (S->isZero()) {
      Info.K = I0->isZero() ? TripCountInfo::Kind::Zero
                            : TripCountInfo::Kind::Infinite;
      return Info;
    }
    Rational H = -*I0 / *S;
    if (H.isInteger() && !H.isNegative()) {
      Info.K = TripCountInfo::Kind::Finite;
      Info.Count = Affine(H.getInteger());
    } else {
      Info.K = TripCountInfo::Kind::Infinite;
    }
    return Info;
  }

  // Orderings: build the strict margin E with "stay iff E(h) > 0".
  ClosedForm One = ClosedForm::constant(Affine(1));
  ClosedForm E;
  switch (Op) {
  case ir::Opcode::CmpLT: // a < b
    E = B - A;
    break;
  case ir::Opcode::CmpLE: // a <= b  ==  a < b+1
    // Subtract before adding the 1: b+1 overflows for b == INT64_MAX (the
    // classic `downto`/`to` boundary loops) even when the margin is small.
    E = B - A + One;
    break;
  case ir::Opcode::CmpGT: // a > b  ==  b < a
    E = A - B;
    break;
  case ir::Opcode::CmpGE: // a >= b  ==  b < a+1
    E = A - B + One;
    break;
  default:
    return Info;
  }
  if (!E.isLinear())
    return Info;
  Affine I = E.coeff(0);
  std::optional<Rational> S = E.coeff(1).getConstant();

  if (std::optional<Rational> IC = I.getConstant()) {
    // Fully numeric: the paper's three-way formula.
    if (!IC->isPositive())
      Info.K = TripCountInfo::Kind::Zero;
    else if (!S || !S->isNegative())
      // Symbolic or non-negative step with positive margin: the margin may
      // never shrink to zero.
      Info.K = S ? TripCountInfo::Kind::Infinite : TripCountInfo::Kind::Unknown;
    else {
      int64_t TC = (*IC / -*S).ceil();
      // The formula reasons over mathematical integers, but execution wraps
      // in two's-complement int64.  If either compared operand overflows
      // before the deciding iteration (e.g. `i < INT64_MAX` from
      // INT64_MAX-5 stepping by 2 jumps past the bound and wraps negative,
      // staying in the loop), the exact count is a lie about the machine.
      // Evaluating both sides at h = TC in exact arithmetic bounds every
      // intermediate value of a linear form (h = 0 is the already-
      // representable initial value); an overflow throws and the wrapper
      // reports Unknown instead.
      (void)A.evaluateAt(TC);
      (void)B.evaluateAt(TC);
      Info.K = TripCountInfo::Kind::Finite;
      Info.Count = Affine(TC);
    }
    return Info;
  }

  // Symbolic initial margin: only the unit-step case divides exactly
  // (ceil(i/1) == i); this covers every `for v = lo to hi` loop.
  if (S && *S == Rational(-1)) {
    Info.K = TripCountInfo::Kind::Finite;
    Info.Count = I;
    Info.Guarded = true;
    return Info;
  }
  return Info;
}

/// analyzeExitImpl with overflow containment: margins built from bounds
/// near INT64_MIN/MAX (the `(hi - lo)` subtraction, the `<=` +1 rewrite,
/// the final-value evaluation) throw RationalOverflow; an uncountable exit
/// is Unknown, never a wrapped number.
TripCountInfo analyzeExit(const analysis::Loop &L, ir::BasicBlock *Exiting,
                          const ClassifyFn &Classify) {
  static const stats::Counter NumOverflows("ivclass.tripcount.overflow");
  try {
    return analyzeExitImpl(L, Exiting, Classify);
  } catch (const RationalOverflow &) {
    NumOverflows.bump();
    return TripCountInfo();
  }
}

} // namespace

TripCountInfo biv::ivclass::computeTripCount(const analysis::Loop &L,
                                             const ClassifyFn &Classify) {
  std::span<ir::BasicBlock *const> Exiting = L.exitingBlocks();
  if (Exiting.empty())
    return TripCountInfo(); // No exit: unknown (runs forever or via return).

  if (Exiting.size() == 1)
    return analyzeExit(L, Exiting[0], Classify);

  // Multiple exits: the true count is the minimum over all exits.  Numeric
  // finite counts combine exactly; otherwise report an upper bound.
  TripCountInfo Combined;
  std::optional<Affine> Min;
  bool AllNumeric = true;
  for (ir::BasicBlock *BB : Exiting) {
    TripCountInfo One = analyzeExit(L, BB, Classify);
    if (One.K == TripCountInfo::Kind::Zero) {
      // Some exit fires before the first stay: the whole loop trips zero
      // times regardless of the others.
      return One;
    }
    if (One.K == TripCountInfo::Kind::Infinite)
      continue; // Never fires; other exits decide.
    if (One.K != TripCountInfo::Kind::Finite) {
      AllNumeric = false;
      // An Unknown exit that still carries an upper bound (a wrapped
      // phase-periodic count) tightens the combined bound: the loop exits
      // no later than the earliest bound over its exits.
      if (One.K == TripCountInfo::Kind::Unknown && One.MaxCount &&
          One.MaxCount->isConstant()) {
        if (!Min || (Min->isConstant() &&
                     *One.MaxCount->getConstant() < *Min->getConstant()))
          Min = *One.MaxCount;
      }
      continue;
    }
    if (One.Guarded || !One.Count.isConstant())
      AllNumeric = false;
    if (!Min) {
      Min = One.Count;
    } else if (Min->isConstant() && One.Count.isConstant()) {
      if (*One.Count.getConstant() < *Min->getConstant())
        Min = One.Count;
    } else {
      AllNumeric = false;
    }
  }
  if (Min && AllNumeric) {
    Combined.K = TripCountInfo::Kind::Finite;
    Combined.Count = *Min;
  } else if (Min) {
    Combined.K = TripCountInfo::Kind::Unknown;
    Combined.MaxCount = *Min;
  }
  return Combined;
}
