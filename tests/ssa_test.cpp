//===- tests/ssa_test.cpp - SSA construction and SCCP unit tests ----------===//

#include "TestUtil.h"
#include "WorkloadGen.h"

using namespace biv;
using namespace biv::testutil;

namespace {

std::unique_ptr<ir::Function> buildSSAOf(const std::string &Src,
                                         ssa::SSAInfo *Info = nullptr) {
  auto F = frontend::parseAndLowerOrDie(Src);
  ssa::SSAInfo I = ssa::buildSSA(*F);
  ssa::verifySSAOrDie(*F);
  if (Info)
    *Info = std::move(I);
  return F;
}

unsigned countPhis(const ir::Function &F) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    N += BB->phis().size();
  return N;
}

} // namespace

TEST(SSATest, NoPhiForStraightLine) {
  auto F = buildSSAOf("func f(n) { x = n; y = x + 1; x = y * 2;"
                      " return x; }");
  EXPECT_EQ(countPhis(*F), 0u);
}

TEST(SSATest, NestedIfsPlaceCascadingPhis) {
  ssa::SSAInfo Info;
  auto F = buildSSAOf("func f(a, b) {"
                      "  x = 0;"
                      "  if (a > 0) {"
                      "    if (b > 0) { x = 1; } else { x = 2; }"
                      "  }"
                      "  return x;"
                      "}",
                      &Info);
  // Inner join merges 1/2; outer join merges inner result with 0.
  EXPECT_EQ(countPhis(*F), 2u);
  EXPECT_EQ(Info.PhisPlaced, 2u);
}

TEST(SSATest, LoopPhiOperandsAreCorrect) {
  ssa::SSAInfo Info;
  auto F = buildSSAOf("func f(n) {"
                      "  s = 10;"
                      "  for L: i = 1 to n { s = s + i; }"
                      "  return s;"
                      "}",
                      &Info);
  analysis::DominatorTree DT(*F);
  analysis::LoopInfo LI(*F, DT);
  ir::Instruction *S = Info.phiFor(LI.byName("L")->header(), "s");
  ASSERT_NE(S, nullptr);
  ASSERT_EQ(S->numOperands(), 2u);
  // One operand is the constant 10 (from the preheader), the other the add.
  bool HasInit = false, HasAdd = false;
  for (ir::Value *Op : S->operands()) {
    if (const auto *C = ir::dyn_cast<ir::Constant>(Op))
      HasInit |= C->value() == 10;
    if (const auto *I = ir::dyn_cast<ir::Instruction>(Op))
      HasAdd |= I->opcode() == ir::Opcode::Add;
  }
  EXPECT_TRUE(HasInit);
  EXPECT_TRUE(HasAdd);
}

TEST(SSATest, UndefFlowsIntoUninitializedPaths) {
  auto F = buildSSAOf("func f(a) {"
                      "  if (a > 0) { x = 1; }"
                      "  x = x + 0;" // reads phi(1, undef)
                      "  return x;"
                      "}");
  bool SawUndef = false;
  for (const auto &BB : F->blocks())
    for (const auto &I : *BB)
      for (ir::Value *Op : I->operands())
        SawUndef |= ir::isa<ir::UndefValue>(Op);
  EXPECT_TRUE(SawUndef);
}

TEST(SSATest, PhiNamesFollowVariables) {
  ssa::SSAInfo Info;
  auto F = buildSSAOf("func f(n) {"
                      "  counter = 0;"
                      "  for L: i = 1 to n { counter = counter + 1; }"
                      "  return counter;"
                      "}",
                      &Info);
  analysis::DominatorTree DT(*F);
  analysis::LoopInfo LI(*F, DT);
  ir::Instruction *C = Info.phiFor(LI.byName("L")->header(), "counter");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->name().rfind("counter", 0), 0u)
      << "phi should carry the source variable's name";
}

TEST(SSATest, ChainWorkloadPlacesOnePhiPerVariable) {
  // The substrate on the chain workload: unpruned placement puts one phi
  // per chain variable (plus the counter) at the single loop header.
  struct Row {
    unsigned Stmts;
    size_t Instrs;
    unsigned Phis;
  };
  const Row Rows[] = {{100, 449, 101}, {1000, 4343, 1001}, {3000, 13024, 3001}};
  for (const Row &Want : Rows) {
    SCOPED_TRACE("stmts " + std::to_string(Want.Stmts));
    auto F = frontend::parseAndLowerOrDie(bench::genLinearChain(Want.Stmts));
    EXPECT_EQ(F->instructionCount(), Want.Instrs);
    EXPECT_EQ(ssa::buildSSA(*F).PhisPlaced, Want.Phis);
  }
}

//===----------------------------------------------------------------------===//
// SCCP
//===----------------------------------------------------------------------===//

TEST(SCCPTest, FoldsThroughPhis) {
  auto F = buildSSAOf("func f(a) {"
                      "  if (a > 0) { x = 2 + 3; } else { x = 10 / 2; }"
                      "  return x * 2;"
                      "}");
  ssa::SCCPResult R = ssa::runSCCP(*F);
  EXPECT_GE(R.FoldedInstructions, 3u); // both adds and the phi and the mul
  const ir::Instruction *Ret = nullptr;
  for (const auto &BB : F->blocks())
    for (const auto &I : *BB)
      if (I->opcode() == ir::Opcode::Ret)
        Ret = I;
  const auto *C = ir::dyn_cast<ir::Constant>(Ret->operand(0));
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->value(), 10);
}

TEST(SCCPTest, TracksOnlyExecutablePaths) {
  // The false branch would poison the phi, but SCCP proves it dead.
  auto F = buildSSAOf("func f(a) {"
                      "  if (1 < 2) { x = 7; } else { x = a; }"
                      "  return x;"
                      "}");
  ssa::SCCPResult R = ssa::runSCCP(*F, /*SimplifyCFG=*/false);
  EXPECT_GE(R.FoldedInstructions, 1u);
  const ir::Instruction *Ret = nullptr;
  for (const auto &BB : F->blocks())
    for (const auto &I : *BB)
      if (I->opcode() == ir::Opcode::Ret)
        Ret = I;
  const auto *C = ir::dyn_cast<ir::Constant>(Ret->operand(0));
  ASSERT_NE(C, nullptr) << "phi over one live edge must fold";
  EXPECT_EQ(C->value(), 7);
}

TEST(SCCPTest, LoopCarriedNonConstantStaysBottom) {
  auto F = buildSSAOf("func f(n) {"
                      "  s = 0;"
                      "  for L: i = 1 to n { s = s + 1; }"
                      "  return s;"
                      "}");
  ssa::SCCPResult R = ssa::runSCCP(*F);
  // s varies; the return operand must not fold to a constant.
  const ir::Instruction *Ret = nullptr;
  for (const auto &BB : F->blocks())
    for (const auto &I : *BB)
      if (I->opcode() == ir::Opcode::Ret)
        Ret = I;
  EXPECT_EQ(ir::dyn_cast<ir::Constant>(Ret->operand(0)), nullptr);
  (void)R;
}

TEST(SCCPTest, ConstantLoopCollapses) {
  // A loop whose exit condition folds: 'while (0 > 1)' never runs.
  auto F = buildSSAOf("func f() {"
                      "  x = 5;"
                      "  while (0 > 1) { x = 99; }"
                      "  return x;"
                      "}");
  ssa::SCCPResult R = ssa::runSCCP(*F);
  EXPECT_GE(R.SimplifiedBranches, 1u);
  interp::ExecutionTrace T = interp::run(*F, {});
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T.ReturnValue, 5);
  ssa::verifySSAOrDie(*F);
}

TEST(SCCPTest, DivByZeroNotFolded) {
  auto F = buildSSAOf("func f(a) {"
                      "  x = 1 / 0;" // must not be folded away to a constant
                      "  return a;"
                      "}");
  ssa::SCCPResult R = ssa::runSCCP(*F, /*SimplifyCFG=*/false);
  bool DivSurvives = false;
  for (const auto &BB : F->blocks())
    for (const auto &I : *BB)
      DivSurvives |= I->opcode() == ir::Opcode::Div;
  EXPECT_TRUE(DivSurvives);
  (void)R;
}

TEST(SCCPTest, ExpFolding) {
  auto F = buildSSAOf("func f() { return 2 ^ 10; }");
  ssa::runSCCP(*F);
  const ir::Instruction *Ret = nullptr;
  for (const auto &BB : F->blocks())
    for (const auto &I : *BB)
      if (I->opcode() == ir::Opcode::Ret)
        Ret = I;
  const auto *C = ir::dyn_cast<ir::Constant>(Ret->operand(0));
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->value(), 1024);
}


TEST(SCCPTest, FoldsLongStraightLineChain) {
  // Every statement folds, and every folded value has a user in the same
  // block: the fold rewrite must stay linear (DESIGN.md §11) and leave
  // valid SSA behind.
  constexpr unsigned N = 4096;
  std::string Src = "func f() { c0 = 1;";
  for (unsigned K = 1; K < N; ++K)
    Src += " c" + std::to_string(K) + " = c" + std::to_string(K - 1) + " + 1;";
  Src += " return c" + std::to_string(N - 1) + "; }";
  auto F = buildSSAOf(Src);
  ASSERT_EQ(F->blocks().size(), 1u);
  ssa::SCCPResult R = ssa::runSCCP(*F, /*SimplifyCFG=*/false);
  EXPECT_EQ(R.FoldedInstructions, N - 1);
  ssa::verifySSAOrDie(*F);
  const ir::Instruction *Ret = F->entry()->terminator();
  ASSERT_EQ(Ret->opcode(), ir::Opcode::Ret);
  const auto *C = ir::dyn_cast<ir::Constant>(Ret->operand(0));
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->value(), int64_t(N));
  EXPECT_EQ(F->instructionCount(), 1u);
}
