//===- tests/baseline_test.cpp - Classical baseline and coverage gap ----------===//
//
// Checks the classical/ad-hoc baseline itself, and the paper's core claim:
// the unified algorithm classifies strictly more than classical + ad hoc.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "WorkloadGen.h"
#include "baseline/ClassicalIV.h"
#include "baseline/PatternMatchers.h"
#include "ivclass/Report.h"

using namespace biv;
using namespace biv::testutil;
using namespace biv::baseline;

TEST(BaselineTest, FindsBasicIV) {
  Analyzed A = analyze("func f(n) {"
                       "  s = 0;"
                       "  for L: i = 1 to n { s = s + i; }"
                       "  return s;"
                       "}");
  ClassicalResult R = runClassicalIV(*A.loop("L"));
  EXPECT_EQ(R.BasicIVs, 1u); // i; s is not a classical IV (step varies)
  EXPECT_TRUE(R.isIV(A.phi("L", "i")));
  EXPECT_FALSE(R.isIV(A.phi("L", "s")));
}

TEST(BaselineTest, FindsDerivedIVsIteratively) {
  Analyzed A = analyze("func f(n, c) {"
                       "  for L: i = 1 to n {"
                       "    A[2*i + 1] = i;"
                       "    A[c - i] = i;"
                       "  }"
                       "  return 0;"
                       "}");
  ClassicalResult R = runClassicalIV(*A.loop("L"));
  EXPECT_EQ(R.BasicIVs, 1u);
  EXPECT_GE(R.DerivedIVs, 3u); // 2*i, 2*i+1, c-i
  EXPECT_GE(R.Passes, 2u) << "fixed-point detection needs >= 2 sweeps";
}

TEST(BaselineTest, MutualIVsNeedIteration) {
  // The L2 mutual pattern: i = j+c; j = i+k.  One basic variable (the
  // cycle), derived values found across sweeps.
  Analyzed A = analyze("func l2(n, c, k) {"
                       "  j = n; i = 0;"
                       "  loop L2 {"
                       "    i = j + c;"
                       "    j = i + k;"
                       "    if (i > 100) break;"
                       "  }"
                       "  return j;"
                       "}");
  ClassicalResult R = runClassicalIV(*A.loop("L2"));
  EXPECT_TRUE(R.isIV(A.phi("L2", "j")));
}

TEST(BaselineTest, ConditionalEqualIncrementsAreBasic) {
  // Figure 3: same increment on both branches still a basic IV.
  Analyzed A = analyze("func l8(x, n) {"
                       "  i = 1;"
                       "  loop L8 {"
                       "    if (x > 0) { i = i + 2; } else { i = i + 2; }"
                       "    if (i > n) break;"
                       "  }"
                       "  return i;"
                       "}");
  ClassicalResult R = runClassicalIV(*A.loop("L8"));
  EXPECT_TRUE(R.isIV(A.phi("L8", "i")));
}

TEST(BaselineTest, AdHocWrapAround) {
  Analyzed A = analyze("func l9(n) {"
                       "  iml = n;"
                       "  for L9: i = 1 to n {"
                       "    A[i] = A[iml] + 1;"
                       "    iml = i;"
                       "  }"
                       "  return 0;"
                       "}");
  ClassicalResult R = runClassicalIV(*A.loop("L9"));
  AdHocResult AH = runAdHocMatchers(*A.loop("L9"), R);
  EXPECT_EQ(AH.WrapArounds, 1u);
}

TEST(BaselineTest, AdHocFlipFlop) {
  Analyzed A = analyze("func l12(n) {"
                       "  j = 1;"
                       "  for L12: iter = 1 to n { j = 3 - j; }"
                       "  return j;"
                       "}");
  ClassicalResult R = runClassicalIV(*A.loop("L12"));
  AdHocResult AH = runAdHocMatchers(*A.loop("L12"), R);
  EXPECT_EQ(AH.FlipFlops, 1u);
}

TEST(BaselineTest, CoverageGapVersusUnified) {
  // One loop containing every class: the classical baseline plus ad hoc
  // matchers must miss the polynomial, geometric, periodic-3, monotonic and
  // second-order wrap-around variables that the unified algorithm gets.
  Analyzed A = analyze("func gap(n) {"
                       "  j = 1; k = 1; l = 1; m = 0; w = 9; w2 = 9;"
                       "  p = 1; q = 2; r = 3; t = 0; cnt = 0;"
                       "  for L: i = 1 to n {"
                       "    j = j + i;"           // polynomial
                       "    l = l * 2 + 1;"       // geometric
                       "    w2 = w;"              // wrap-around order 2
                       "    w = i;"               // wrap-around order 1
                       "    t = p; p = q; q = r; r = t;" // periodic 3
                       "    if (A[i] > 0) { cnt = cnt + 1; }" // monotonic
                       "    k = 3 * i + 7;"       // derived linear (both find)
                       "  }"
                       "  return cnt;"
                       "}");
  analysis::Loop *L = A.loop("L");
  ClassicalResult CR = runClassicalIV(*L);
  AdHocResult AH = runAdHocMatchers(*L, CR);

  // Classical: only i (basic) and the derived linear expressions.
  EXPECT_FALSE(CR.isIV(A.phi("L", "j")));
  EXPECT_FALSE(CR.isIV(A.phi("L", "l")));
  EXPECT_FALSE(CR.isIV(A.phi("L", "p")));
  EXPECT_FALSE(CR.isIV(A.phi("L", "cnt")));
  EXPECT_TRUE(CR.isIV(A.phi("L", "i")));

  // Ad hoc: finds first-order wrap-arounds only (w, and k's header phi
  // which wraps the derived IV 3i+7) -- but not the second-order w2.
  EXPECT_EQ(AH.WrapArounds, 2u);

  // Unified: classifies all of them.
  using ivclass::IVKind;
  EXPECT_EQ(A.cls("L", "j").Kind, IVKind::Polynomial);
  EXPECT_EQ(A.cls("L", "l").Kind, IVKind::Geometric);
  EXPECT_EQ(A.cls("L", "p").Kind, IVKind::Periodic);
  EXPECT_EQ(A.cls("L", "cnt").Kind, IVKind::Monotonic);
  EXPECT_EQ(A.cls("L", "w").Kind, IVKind::WrapAround);
  const ivclass::Classification &W2 = A.cls("L", "w2");
  ASSERT_EQ(W2.Kind, IVKind::WrapAround);
  EXPECT_EQ(W2.WrapOrder, 2u);

  // The same gap as a coverage table: on 16 groups of every class (145
  // loop-header variables), classical + ad hoc reaches 17 + 16 while the
  // unified algorithm classifies all 145.
  ivclass::InductionAnalysis::Options Opts;
  Opts.MaterializeExitValues = false;
  Analyzed M = analyze(bench::genMixedClasses(16), /*RunSCCP=*/false, Opts);

  unsigned ClassicalIVs = 0, AdHocWraps = 0, AdHocFlips = 0, HeaderPhis = 0;
  for (const auto &ML : M.LI->loops()) {
    ClassicalResult MCR = runClassicalIV(*ML);
    AdHocResult MAH = runAdHocMatchers(*ML, MCR);
    for (ir::Instruction *Phi : ML->header()->phis()) {
      ++HeaderPhis;
      ClassicalIVs += MCR.isIV(Phi);
    }
    AdHocWraps += MAH.WrapArounds;
    AdHocFlips += MAH.FlipFlops;
  }
  EXPECT_EQ(HeaderPhis, 145u);
  EXPECT_EQ(ClassicalIVs, 17u);
  EXPECT_EQ(AdHocWraps, 16u) << "first-order wrap-arounds only";
  EXPECT_EQ(AdHocFlips, 0u) << "the swap form is not matched";

  ivclass::KindCounts KC = ivclass::countHeaderPhiKinds(*M.IA);
  EXPECT_EQ(KC.classified(), 145u);
  EXPECT_EQ(KC.Linear, 17u);
  EXPECT_EQ(KC.Polynomial, 16u);
  EXPECT_EQ(KC.Geometric, 16u);
  EXPECT_EQ(KC.WrapAround, 32u) << "orders 1 and 2";
  EXPECT_EQ(KC.Periodic, 48u);
  EXPECT_EQ(KC.Monotonic, 16u);
}

TEST(BaselineTest, ClassicalIteratesToFixedPointOnChains) {
  // The classical algorithm is iterative: even on the chain workload, where
  // program order lets one sweep discover every derived IV, it needs a
  // second sweep to confirm the fixed point.  The unified analysis is one
  // pass over the SSA graph.
  for (unsigned Stmts : {100u, 1000u}) {
    Analyzed A = analyze(bench::genLinearChain(Stmts));
    EXPECT_EQ(runClassicalIV(*A.loop("L1")).Passes, 2u) << Stmts;
  }
}

TEST(BaselineTest, AgreementOnLinearIVs) {
  // Property: everything classical calls an IV, the unified analysis must
  // classify as linear (they agree on the classical domain).
  const char *Programs[] = {
      "func a(n) { for L: i = 1 to n { A[3*i - 2] = i; } return 0; }",
      "func b(n, c) { j = c; loop L { j = j + 4; if (j > n) break; }"
      " return j; }",
      "func c(n) { s = 0; for L: i = 2 to n by 3 { s = s + 2; } return s; }",
  };
  for (const char *Src : Programs) {
    Analyzed A = analyze(Src);
    analysis::Loop *L = A.loop("L");
    ClassicalResult CR = runClassicalIV(*L);
    EXPECT_GT(CR.BasicIVs + CR.DerivedIVs, 0u) << Src;
    for (const auto &[V, IV] : CR.IVs) {
      (void)IV;
      const ivclass::Classification &C = A.IA->classify(V, L);
      EXPECT_TRUE(C.isLinear() || C.isInvariant())
          << Src << ": classical IV not linear under unified analysis";
    }
  }
}
