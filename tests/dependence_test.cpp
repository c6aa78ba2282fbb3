//===- tests/dependence_test.cpp - Section 6: classical dependence tests ------===//
//
// E10 (loop L21's dependence equation), E12 (the L23/L24 normalization
// argument), plus unit coverage of ZIV/SIV/MIV and a dynamic oracle: a pair
// the analyzer proves independent must never collide at runtime.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "dependence/DependenceAnalyzer.h"

using namespace biv;
using namespace biv::testutil;
using namespace biv::dependence;

namespace {

struct DepRun {
  Analyzed A;
  std::vector<Dependence> Deps;
};

DepRun analyzeDeps(const std::string &Src) {
  DepRun R;
  R.A = analyze(Src);
  DependenceAnalyzer DA(*R.A.IA);
  R.Deps = DA.analyze();
  return R;
}

/// The unique dependence of kind \p K, or null.
const Dependence *depOfKind(const DepRun &R, DepKind K) {
  const Dependence *Found = nullptr;
  for (const Dependence &D : R.Deps)
    if (D.Kind == K) {
      EXPECT_EQ(Found, nullptr) << "multiple " << depKindName(K) << " deps";
      Found = &D;
    }
  return Found;
}

/// Dynamic oracle: if two references ever touch the same cell at runtime,
/// the static result must not be Independent.
void checkNoFalseIndependence(const DepRun &R,
                              const interp::ExecutionTrace &T) {
  ASSERT_TRUE(T.ok()) << T.Error;
  for (const Dependence &D : R.Deps) {
    if (D.Result.O != DependenceResult::Outcome::Independent)
      continue;
    // Collect cells per reference.
    std::set<std::vector<int64_t>> SrcCells, DstCells;
    for (const interp::ArrayAccess &A : T.Accesses) {
      // Match accesses back to instructions via the traced values; the
      // trace does not record the instruction, so replay by index pattern:
      // conservative check below uses the full access sets of the array.
      (void)A;
    }
    // Simpler sound check: replay all accesses of this array; if any cell
    // is both written and read/written at different times by *any* refs,
    // we cannot attribute it; so instead check that the two specific
    // subscript sequences never intersect.
    const std::vector<int64_t> &SrcSeq =
        T.sequenceOf(ir::cast<ir::Instruction>(
            D.Src->operand(D.Src->opcode() == ir::Opcode::ArrayStore ? 1
                                                                     : 0)));
    const std::vector<int64_t> &DstSeq =
        T.sequenceOf(ir::cast<ir::Instruction>(
            D.Dst->operand(D.Dst->opcode() == ir::Opcode::ArrayStore ? 1
                                                                     : 0)));
    std::set<int64_t> SrcVals(SrcSeq.begin(), SrcSeq.end());
    for (int64_t V : DstSeq)
      EXPECT_FALSE(SrcVals.count(V))
          << "statically independent pair collided on subscript " << V;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// E10: the dependence equation of loop L21
//===----------------------------------------------------------------------===//

TEST(DependenceTest, LoopL21Equation) {
  // i=0; j=3; loop: i=i+1; A(i) = A(j-1)...; j=j+2.  The paper classifies
  // the write subscript as (L21, 1, 1) and the read as (L21, 2, 2); the
  // equation i'+1 = 2i+2 has solutions, e.g. (i, i') = (0, 1) -> h' = h+...
  DepRun R = analyzeDeps("func l21(n) {"
                         "  i = 0; j = 3;"
                         "  loop L21 {"
                         "    i = i + 1;"
                         "    A[i] = A[j - 1] + 1;"
                         "    j = j + 2;"
                         "    if (i > n) break;"
                         "  }"
                         "  return i;"
                         "}");
  // Write A[i]: i after increment = (L21, 1, 1).
  // Read A[j-1]: j = (L21, 3, 2), j-1 = (L21, 2, 2).
  // Solutions of 1+h' == 2+2h always have h' > h: the read-then-write pair
  // carries an anti dependence (<); no flow dependence exists.
  ASSERT_EQ(R.Deps.size(), 1u);
  EXPECT_EQ(R.Deps[0].Kind, DepKind::Anti);
  EXPECT_NE(R.Deps[0].Result.O, DependenceResult::Outcome::Independent);
  EXPECT_EQ(R.Deps[0].Result.dirsFor(R.A.loop("L21")), DirLT);
}

TEST(DependenceTest, StrongSIVDistance) {
  // A[i] = A[i-1]: classic distance-1 flow dependence.
  DepRun R = analyzeDeps("func f(n) {"
                         "  for L: i = 1 to 100 {"
                         "    A[i] = A[i - 1] + 1;"
                         "  }"
                         "  return 0;"
                         "}");
  const Dependence *Flow = depOfKind(R, DepKind::Flow);
  ASSERT_NE(Flow, nullptr);
  EXPECT_EQ(Flow->Result.O, DependenceResult::Outcome::Dependent);
  ASSERT_EQ(Flow->Result.Directions.size(), 1u);
  EXPECT_EQ(Flow->Result.Directions[0].Dirs, DirLT);
  ASSERT_TRUE(Flow->Result.Directions[0].Distance.has_value());
  EXPECT_EQ(*Flow->Result.Directions[0].Distance, 1);
}

TEST(DependenceTest, StrongSIVIndependentBeyondBounds) {
  // A[i] vs A[i+200] in a 100-iteration loop: distance exceeds the bound.
  DepRun R = analyzeDeps("func f() {"
                         "  for L: i = 1 to 100 {"
                         "    A[i] = A[i + 200] + 1;"
                         "  }"
                         "  return 0;"
                         "}");
  for (const Dependence &D : R.Deps)
    EXPECT_EQ(D.Result.O, DependenceResult::Outcome::Independent);
  interp::ExecutionTrace T = interp::run(*R.A.F, {});
  checkNoFalseIndependence(R, T);
}

TEST(DependenceTest, ZIVDistinctConstants) {
  DepRun R = analyzeDeps("func f(n) {"
                         "  for L: i = 1 to n {"
                         "    A[1] = A[2] + i;"
                         "  }"
                         "  return 0;"
                         "}");
  for (const Dependence &D : R.Deps)
    if (D.Kind != DepKind::Output) { // A[1]'s self output dep is real
      EXPECT_EQ(D.Result.O, DependenceResult::Outcome::Independent)
          << D.Result.Note;
    }
}

TEST(DependenceTest, ZIVEqualConstantsDependent) {
  DepRun R = analyzeDeps("func f(n) {"
                         "  for L: i = 1 to n {"
                         "    A[5] = A[5] + i;"
                         "  }"
                         "  return 0;"
                         "}");
  bool AnyDependent = false;
  for (const Dependence &D : R.Deps)
    AnyDependent |= D.Result.O == DependenceResult::Outcome::Dependent;
  EXPECT_TRUE(AnyDependent);
}

TEST(DependenceTest, GCDTestIndependence) {
  // A[2i] vs A[2i+1]: even vs odd cells never meet.
  DepRun R = analyzeDeps("func f(n) {"
                         "  for L: i = 1 to n {"
                         "    A[2*i] = A[2*i + 1] + 1;"
                         "  }"
                         "  return 0;"
                         "}");
  for (const Dependence &D : R.Deps)
    EXPECT_EQ(D.Result.O, DependenceResult::Outcome::Independent)
        << D.Result.Note;
  interp::ExecutionTrace T = interp::run(*R.A.F, {50});
  checkNoFalseIndependence(R, T);
}

TEST(DependenceTest, WeakZeroSIV) {
  // A[i] vs A[10] in 1..100: dependence pinned at i == 10.
  DepRun R = analyzeDeps("func f() {"
                         "  for L: i = 1 to 100 {"
                         "    A[i] = A[10] + 1;"
                         "  }"
                         "  return 0;"
                         "}");
  const Dependence *Flow = depOfKind(R, DepKind::Flow);
  ASSERT_NE(Flow, nullptr);
  EXPECT_NE(Flow->Result.O, DependenceResult::Outcome::Independent);
}

TEST(DependenceTest, WeakZeroSIVOutOfBounds) {
  // A[i] vs A[200] in 1..100: pinned iteration out of range.
  DepRun R = analyzeDeps("func f() {"
                         "  for L: i = 1 to 100 {"
                         "    A[i] = A[200] + 1;"
                         "  }"
                         "  return 0;"
                         "}");
  for (const Dependence &D : R.Deps)
    EXPECT_EQ(D.Result.O, DependenceResult::Outcome::Independent)
        << D.Result.Note;
}

TEST(DependenceTest, MultiDimensionalExactDistances) {
  // A[i][j] = A[i-1][j]: distance (1, 0) -- the L23 example.
  DepRun R = analyzeDeps("func l23(n) {"
                         "  for L23: i = 1 to 50 {"
                         "    for L24: j = 1 to 50 {"
                         "      A[i, j] = A[i - 1, j] + 1;"
                         "    }"
                         "  }"
                         "  return 0;"
                         "}");
  const Dependence *Flow = depOfKind(R, DepKind::Flow);
  ASSERT_NE(Flow, nullptr);
  ASSERT_EQ(Flow->Result.Directions.size(), 2u);
  const LoopDirection &Outer = Flow->Result.Directions[0];
  const LoopDirection &Inner = Flow->Result.Directions[1];
  EXPECT_EQ(Outer.L->name(), "L23");
  ASSERT_TRUE(Outer.Distance.has_value());
  EXPECT_EQ(*Outer.Distance, 1);
  ASSERT_TRUE(Inner.Distance.has_value());
  EXPECT_EQ(*Inner.Distance, 0);
}

TEST(DependenceTest, NormalizationInvarianceL23L24) {
  // Section 6.1: the paper's anti-normalization example.  The triangular
  // loop `for j = i+1 to 50` and its normalized form `for j = 1 to 50-i`
  // with shifted subscripts compute the same thing; classically they give
  // different distance vectors, but in this framework "the shape of the
  // loop iteration space is not part of the induction variable recognition
  // strategy": both forms must produce the *same* expanded subscripts and
  // the same dependence results.
  const char *Original = "func l23(n) {"
                         "  for L23: i = 1 to 50 {"
                         "    for L24: j = i + 1 to 50 {"
                         "      A[i, j] = A[i - 1, j] + 1;"
                         "    }"
                         "  }"
                         "  return 0;"
                         "}";
  const char *Normalized = "func l23n(n) {"
                           "  for L23: i = 1 to 50 {"
                           "    for L24: j = 1 to 50 - i {"
                           "      A[i, j + i] = A[i - 1, j + i] + 1;"
                           "    }"
                           "  }"
                           "  return 0;"
                           "}";
  auto expandRead = [](DepRun &R) {
    // The read A[.., ..] second subscript, fully expanded.
    const ir::Instruction *Load = nullptr;
    for (const auto &BB : R.A.F->blocks())
      for (const auto &I : *BB)
        if (I->opcode() == ir::Opcode::ArrayLoad)
          Load = I;
    EXPECT_NE(Load, nullptr);
    SubscriptInfo SI = classifySubscript(*R.A.IA, Load->operand(1),
                                         R.A.loop("L24"));
    EXPECT_TRUE(SI.Linear.has_value());
    return *SI.Linear;
  };
  DepRun R1 = analyzeDeps(Original);
  DepRun R2 = analyzeDeps(Normalized);
  LinearSubscript S1 = expandRead(R1);
  LinearSubscript S2 = expandRead(R2);
  // Identical expansions: const 2 + 1*h(L23) + 1*h(L24) in both forms.
  EXPECT_EQ(S1.Const, Affine(2));
  EXPECT_EQ(S2.Const, Affine(2));
  EXPECT_EQ(S1.coeff(R1.A.loop("L23")), Affine(1));
  EXPECT_EQ(S2.coeff(R2.A.loop("L23")), Affine(1));
  EXPECT_EQ(S1.coeff(R1.A.loop("L24")), Affine(1));
  EXPECT_EQ(S2.coeff(R2.A.loop("L24")), Affine(1));
  // And identical dependence verdicts.
  ASSERT_EQ(R1.Deps.size(), R2.Deps.size());
  for (size_t I = 0; I < R1.Deps.size(); ++I) {
    EXPECT_EQ(R1.Deps[I].Kind, R2.Deps[I].Kind);
    EXPECT_EQ(static_cast<int>(R1.Deps[I].Result.O),
              static_cast<int>(R2.Deps[I].Result.O));
  }
  // Neither form may claim independence for the flow pair: the dependence
  // is real (the paper's motivating interchange-blocker).
  const Dependence *Flow = depOfKind(R1, DepKind::Flow);
  ASSERT_NE(Flow, nullptr);
  EXPECT_NE(Flow->Result.O, DependenceResult::Outcome::Independent);
  ASSERT_TRUE(Flow->Result.Directions[0].Distance.has_value());
  EXPECT_EQ(*Flow->Result.Directions[0].Distance, 1);
}

TEST(DependenceTest, SymbolicIdenticalSubscripts) {
  // A[i + n] on both sides: symbolic but identical -> distance 0.
  DepRun R = analyzeDeps("func f(n) {"
                         "  for L: i = 1 to 100 {"
                         "    A[i + n] = A[i + n] + 1;"
                         "  }"
                         "  return 0;"
                         "}");
  // The read executes before the write, so distance 0 is an anti dep.
  const Dependence *Anti = depOfKind(R, DepKind::Anti);
  ASSERT_NE(Anti, nullptr);
  ASSERT_EQ(Anti->Result.Directions.size(), 1u);
  EXPECT_EQ(Anti->Result.Directions[0].Dirs, DirEQ);
}

TEST(DependenceTest, BanerjeeDirectionRefinement) {
  // A[i] = A[n - i]: crossing pattern; no exact distance but directions
  // stay unrefuted (crossing can give <, =, >) -- while A[i] = A[i + n]
  // with unknown n stays (*) too; check Banerjee prunes A[i] vs A[-i-1]
  // (always disjoint for i >= 0: subscripts positive vs negative).
  DepRun R = analyzeDeps("func f() {"
                         "  for L: i = 1 to 100 {"
                         "    A[i] = A[-i - 1] + 1;"
                         "  }"
                         "  return 0;"
                         "}");
  for (const Dependence &D : R.Deps)
    EXPECT_EQ(D.Result.O, DependenceResult::Outcome::Independent)
        << D.Result.Note;
}

TEST(DependenceTest, MIVCoupledSubscripts) {
  // A[i + j] = A[i + j - 1]: MIV; dependence must be assumed.
  DepRun R = analyzeDeps("func f() {"
                         "  for L1: i = 1 to 10 {"
                         "    for L2: j = 1 to 10 {"
                         "      A[i + j] = A[i + j - 1] + 1;"
                         "    }"
                         "  }"
                         "  return 0;"
                         "}");
  const Dependence *Flow = depOfKind(R, DepKind::Flow);
  ASSERT_NE(Flow, nullptr);
  EXPECT_NE(Flow->Result.O, DependenceResult::Outcome::Independent);
}

TEST(DependenceTest, NoWriteNoDependence) {
  DepRun R = analyzeDeps("func f(n) {"
                         "  s = 0;"
                         "  for L: i = 1 to n {"
                         "    s = s + A[i] + A[i + 1];"
                         "  }"
                         "  return s;"
                         "}");
  EXPECT_TRUE(R.Deps.empty()) << "read-only arrays produce no dependences";
}

TEST(DependenceTest, ArraysReportInCreationOrder) {
  // Dependences are grouped per array, and the groups follow
  // Function::arrays(), the order the arrays were created in (lowering
  // creates them sorted by name) -- not the order of first reference, and
  // not their addresses, which vary with heap history in a long-lived
  // process.
  const char *Src = "func f(n) {"
                    "  for L: i = 1 to n {"
                    "    Z[i] = Z[i - 1] + 1;"
                    "    A[i] = A[i - 2] + 1;"
                    "    M[i] = M[i - 3] + 1;"
                    "  }"
                    "  return 0;"
                    "}";
  DepRun R = analyzeDeps(Src);
  ASSERT_EQ(R.A.F->arrays().size(), 3u);
  EXPECT_EQ(R.A.F->arrays()[0]->name(), "A");
  EXPECT_EQ(R.A.F->arrays()[1]->name(), "M");
  EXPECT_EQ(R.A.F->arrays()[2]->name(), "Z");
  std::vector<std::string> Groups;
  for (const Dependence &D : R.Deps) {
    std::string Name(D.Src->array()->name());
    EXPECT_EQ(Name, std::string(D.Dst->array()->name()));
    if (Groups.empty() || Groups.back() != Name)
      Groups.push_back(Name);
  }
  EXPECT_EQ(Groups, (std::vector<std::string>{"A", "M", "Z"}));
  // A second analysis in this process renders the same report.
  DepRun Again = analyzeDeps(Src);
  DependenceAnalyzer DA1(*R.A.IA), DA2(*Again.A.IA);
  std::vector<Dependence> D1 = DA1.analyze(), D2 = DA2.analyze();
  EXPECT_EQ(DA1.report(D1), DA2.report(D2));
}

TEST(DependenceTest, RandomizedIndependenceOracle) {
  // Sweep stride/offset combinations; every Independent verdict is checked
  // against a real execution.
  for (int64_t Stride1 : {1, 2, 3})
    for (int64_t Stride2 : {1, 2, 4})
      for (int64_t Off : {0, 1, 3, 7}) {
        std::string Src = "func f() {"
                          "  for L: i = 0 to 30 {"
                          "    A[" +
                          std::to_string(Stride1) + "*i] = A[" +
                          std::to_string(Stride2) + "*i + " +
                          std::to_string(Off) + "] + 1;"
                                                "  }"
                                                "  return 0;"
                                                "}";
        DepRun R = analyzeDeps(Src);
        interp::ExecutionTrace T = interp::run(*R.A.F, {});
        checkNoFalseIndependence(R, T);
      }
}
