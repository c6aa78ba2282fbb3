//===- tests/analysis_test.cpp - Dominators and loop info unit tests ----------===//

#include "TestUtil.h"
#include "WorkloadGen.h"
#include "ir/IRBuilder.h"
#include <algorithm>
#include <set>

using namespace biv;
using namespace biv::testutil;
using namespace biv::analysis;

namespace {

std::unique_ptr<ir::Function> build(const std::string &Src) {
  return frontend::parseAndLowerOrDie(Src);
}

ir::BasicBlock *byName(const ir::Function &F, const std::string &N) {
  for (ir::BasicBlock *BB : F.blocks())
    if (BB->name() == N)
      return BB;
  return nullptr;
}

/// Brute-force dominance: A dominates B iff removing A disconnects B from
/// the entry.
bool bruteDominates(const ir::Function &F, const ir::BasicBlock *A,
                    const ir::BasicBlock *B) {
  if (A == B)
    return true;
  if (B == F.entry())
    return false; // the entry is dominated only by itself
  std::vector<char> Seen(F.numBlocks(), 0);
  std::vector<const ir::BasicBlock *> Work{F.entry()};
  if (F.entry() == A)
    return true;
  Seen[F.entry()->id()] = 1;
  while (!Work.empty()) {
    const ir::BasicBlock *BB = Work.back();
    Work.pop_back();
    for (ir::BasicBlock *S : BB->successors()) {
      if (S == A || Seen[S->id()])
        continue;
      if (S == B)
        return false;
      Seen[S->id()] = 1;
      Work.push_back(S);
    }
  }
  return true; // B unreachable without A (or unreachable entirely)
}

/// Is B reachable from the entry?
bool reachable(const ir::Function &F, const ir::BasicBlock *B) {
  std::vector<char> Seen(F.numBlocks(), 0);
  std::vector<const ir::BasicBlock *> Work{F.entry()};
  Seen[F.entry()->id()] = 1;
  while (!Work.empty()) {
    const ir::BasicBlock *BB = Work.back();
    Work.pop_back();
    if (BB == B)
      return true;
    for (ir::BasicBlock *S : BB->successors())
      if (!Seen[S->id()]) {
        Seen[S->id()] = 1;
        Work.push_back(S);
      }
  }
  return false;
}

} // namespace

TEST(DominatorTest, DiamondShape) {
  auto F = build("func f(n) {"
                 "  if (n > 0) { x = 1; } else { x = 2; }"
                 "  return x;"
                 "}");
  DominatorTree DT(*F);
  ir::BasicBlock *Entry = F->entry();
  ir::BasicBlock *Then = byName(*F, "if.then");
  ir::BasicBlock *Else = byName(*F, "if.else");
  ir::BasicBlock *Join = byName(*F, "if.join");
  ASSERT_TRUE(Then && Else && Join);
  EXPECT_TRUE(DT.dominates(Entry, Join));
  EXPECT_FALSE(DT.dominates(Then, Join));
  EXPECT_FALSE(DT.dominates(Else, Join));
  EXPECT_EQ(DT.idom(Join), Entry);
  EXPECT_EQ(DT.idom(Then), Entry);
  EXPECT_TRUE(DT.properlyDominates(Entry, Then));
  EXPECT_FALSE(DT.properlyDominates(Entry, Entry));
}

TEST(DominatorTest, MatchesBruteForceOnRealPrograms) {
  const char *Programs[] = {
      "func a(n) { s = 0; for L: i = 1 to n { if (i > 2) { s = s + 1; }"
      " else { s = s + 2; } } return s; }",
      "func b(n) { x = 0; loop L1 { x = x + 1; if (x > n) break;"
      " loop L2 { x = x + 2; if (x > 2 * n) break; } } return x; }",
      "func c(n) { if (n > 0) { if (n > 1) { x = 1; } else { x = 2; } }"
      " else { x = 3; } while (x < n) { x = x + 1; } return x; }",
  };
  for (const char *Src : Programs) {
    auto F = build(Src);
    DominatorTree DT(*F);
    for (const ir::BasicBlock *A : F->blocks())
      for (const ir::BasicBlock *B : F->blocks()) {
        if (!reachable(*F, A) || !reachable(*F, B))
          continue;
        EXPECT_EQ(DT.dominates(A, B), bruteDominates(*F, A, B))
            << Src << ": " << A->name() << " vs " << B->name();
      }
  }
}

TEST(DominatorTest, InstructionLevelDominance) {
  auto F = build("func f(n) { x = n + 1; y = x * 2; return y; }");
  DominatorTree DT(*F);
  const ir::BasicBlock *Entry = F->entry();
  const ir::Instruction *X = Entry->instructions()[0];
  const ir::Instruction *Y = Entry->instructions()[1];
  EXPECT_TRUE(DT.dominates(X, Y));
  EXPECT_FALSE(DT.dominates(Y, X));
  EXPECT_FALSE(DT.dominates(X, X));
}

TEST(DominanceFrontierTest, JoinIsInBranchFrontiers) {
  auto F = build("func f(n) {"
                 "  if (n > 0) { x = 1; } else { x = 2; }"
                 "  return x;"
                 "}");
  DominatorTree DT(*F);
  DominanceFrontier DF(DT);
  ir::BasicBlock *Then = byName(*F, "if.then");
  ir::BasicBlock *Join = byName(*F, "if.join");
  const auto &Frontier = DF.frontier(Then);
  EXPECT_NE(std::find(Frontier.begin(), Frontier.end(), Join),
            Frontier.end());
  // The entry dominates everything: empty frontier.
  EXPECT_TRUE(DF.frontier(F->entry()).empty());
}

TEST(DominanceFrontierTest, LoopHeaderInLatchFrontier) {
  auto F = build("func f(n) { s = 0; for L: i = 1 to n { s = s + 1; }"
                 " return s; }");
  DominatorTree DT(*F);
  DominanceFrontier DF(DT);
  ir::BasicBlock *Latch = byName(*F, "L.latch");
  ir::BasicBlock *Header = byName(*F, "L.header");
  ASSERT_TRUE(Latch && Header);
  const auto &Frontier = DF.frontier(Latch);
  EXPECT_NE(std::find(Frontier.begin(), Frontier.end(), Header),
            Frontier.end());
  // The header is in its own frontier (it does not strictly dominate
  // itself as a join of the backedge).
  const auto &HF = DF.frontier(Header);
  EXPECT_NE(std::find(HF.begin(), HF.end(), Header), HF.end());
}

TEST(LoopInfoTest, WhileLoopShape) {
  auto F = build("func f(n) { x = 0; while W: (x < n) { x = x + 1; }"
                 " return x; }");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop *L = LI.loops()[0];
  EXPECT_EQ(L->name(), "W");
  EXPECT_NE(L->preheader(), nullptr);
  EXPECT_EQ(L->exitingBlocks().size(), 1u);
  EXPECT_EQ(L->exitingBlocks()[0], L->header());
}

TEST(LoopInfoTest, MultipleBreaksOneLoop) {
  auto F = build("func f(n) {"
                 "  x = 0;"
                 "  loop L {"
                 "    x = x + 1;"
                 "    if (x > n) break;"
                 "    if (x > 2 * n) break;"
                 "  }"
                 "  return x;"
                 "}");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  EXPECT_EQ(LI.loops()[0]->exitingBlocks().size(), 2u);
  EXPECT_EQ(LI.loops()[0]->latches().size(), 1u);
}

TEST(LoopInfoTest, SiblingsAndNesting) {
  auto F = build("func f(n) {"
                 "  for L1: i = 1 to n {"
                 "    for L2: j = 1 to n { A[i, j] = 0; }"
                 "    for L3: j = 1 to n { A[i, j] = 1; }"
                 "  }"
                 "  for L4: i = 1 to n { B[i] = 0; }"
                 "  return 0;"
                 "}");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 4u);
  EXPECT_EQ(LI.topLevel().size(), 2u);
  Loop *L1 = LI.byName("L1");
  Loop *L2 = LI.byName("L2");
  Loop *L3 = LI.byName("L3");
  Loop *L4 = LI.byName("L4");
  EXPECT_EQ(L2->parent(), L1);
  EXPECT_EQ(L3->parent(), L1);
  EXPECT_EQ(L4->parent(), nullptr);
  EXPECT_EQ(L1->subLoops().size(), 2u);
  // loopFor maps blocks to the innermost loop.
  EXPECT_EQ(LI.loopFor(L2->header()), L2);
  EXPECT_EQ(LI.loopFor(L1->header()), L1);
}

TEST(LoopInfoTest, InnerToOuterOrder) {
  auto F = build("func f(n) {"
                 "  for L1: a = 1 to n {"
                 "    for L2: b = 1 to n {"
                 "      for L3: c = 1 to n { A[c] = 0; }"
                 "    }"
                 "  }"
                 "  return 0;"
                 "}");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  std::vector<Loop *> Order = LI.innerToOuter();
  ASSERT_EQ(Order.size(), 3u);
  // Children before parents.
  for (size_t I = 0; I < Order.size(); ++I)
    for (size_t J = I + 1; J < Order.size(); ++J)
      EXPECT_FALSE(Order[I]->encloses(Order[J]) && Order[I] != Order[J]);
}

TEST(LoopInfoTest, LoopBlocksAndContains) {
  auto F = build("func f(n) {"
                 "  s = 0;"
                 "  for L: i = 1 to n {"
                 "    if (i > 2) { s = s + 1; }"
                 "  }"
                 "  return s;"
                 "}");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  Loop *L = LI.byName("L");
  ASSERT_NE(L, nullptr);
  // header, body, if.then, if.join, latch.
  EXPECT_EQ(L->blocks().size(), 5u);
  EXPECT_TRUE(L->contains(L->header()));
  EXPECT_FALSE(L->contains(F->entry()));
  for (ir::BasicBlock *BB : L->exitBlocks())
    EXPECT_FALSE(L->contains(BB));
}

namespace {

/// Brute-force natural loops, one per back-edge target: the body is every
/// block that reaches a latch without passing the header, kept as a set.
struct BruteLoop {
  const ir::BasicBlock *Header;
  std::set<unsigned> Body;
};

std::vector<BruteLoop> bruteLoops(const ir::Function &F,
                                  const DominatorTree &DT) {
  std::vector<BruteLoop> Result;
  for (const ir::BasicBlock *H : DT.rpo()) {
    BruteLoop L{H, {H->id()}};
    std::vector<const ir::BasicBlock *> Work;
    bool HasBackEdge = false;
    for (const ir::BasicBlock *P : H->predecessors())
      if (reachable(F, P) && DT.dominates(H, P)) {
        HasBackEdge = true;
        if (L.Body.insert(P->id()).second)
          Work.push_back(P);
      }
    if (!HasBackEdge)
      continue;
    while (!Work.empty()) {
      const ir::BasicBlock *BB = Work.back();
      Work.pop_back();
      if (BB == H)
        continue;
      for (const ir::BasicBlock *P : BB->predecessors())
        if (L.Body.insert(P->id()).second)
          Work.push_back(P);
    }
    Result.push_back(std::move(L));
  }
  return Result;
}

/// Checks every LoopInfo answer against bruteLoops(): the loop set, each
/// body (function-ordered in blocks(), exact under contains() for every
/// block), parents as the smallest strictly enclosing loop, depths,
/// loopFor(), and innerToOuter() as the reverse of header RPO.
void expectMatchesBruteForce(const ir::Function &F, const DominatorTree &DT,
                             const LoopInfo &LI) {
  std::vector<BruteLoop> Brute = bruteLoops(F, DT);
  ASSERT_EQ(LI.loops().size(), Brute.size());
  std::vector<size_t> FuncPos(F.numBlocks());
  for (size_t I = 0; I < F.blocks().size(); ++I)
    FuncPos[F.blocks()[I]->id()] = I;
  auto bruteOf = [&](const Loop *L) -> const BruteLoop & {
    return Brute[L->index()];
  };
  for (size_t I = 0; I < Brute.size(); ++I) {
    const Loop *L = LI.loops()[I];
    ASSERT_EQ(L->index(), I);
    ASSERT_EQ(L->header(), Brute[I].Header);
    const std::set<unsigned> &Body = Brute[I].Body;
    std::set<unsigned> Got;
    for (size_t K = 0; K < L->blocks().size(); ++K) {
      Got.insert(L->blocks()[K]->id());
      if (K > 0) {
        EXPECT_LT(FuncPos[L->blocks()[K - 1]->id()],
                  FuncPos[L->blocks()[K]->id()])
            << L->name() << " blocks out of function order";
      }
    }
    EXPECT_EQ(Got, Body) << L->name();
    for (const ir::BasicBlock *BB : F.blocks())
      EXPECT_EQ(L->contains(BB), Body.count(BB->id()) != 0)
          << L->name() << " contains " << BB->name();

    // Parent: the smallest other loop whose body holds the header.
    const Loop *Parent = nullptr;
    unsigned Depth = 1;
    for (const auto &O : LI.loops()) {
      if (O == L || !bruteOf(O).Body.count(L->header()->id()))
        continue;
      ++Depth;
      if (!Parent || bruteOf(O).Body.size() < bruteOf(Parent).Body.size())
        Parent = O;
    }
    EXPECT_EQ(L->parent(), Parent) << L->name();
    EXPECT_EQ(L->depth(), Depth) << L->name();
    for (const auto &O : LI.loops()) {
      bool Inside = O == L;
      for (const Loop *P = O->parent(); P && !Inside; P = P->parent())
        Inside = P == L;
      EXPECT_EQ(L->encloses(O), Inside) << L->name() << " / " << O->name();
    }
  }
  for (const ir::BasicBlock *BB : F.blocks()) {
    const Loop *Innermost = nullptr;
    for (const auto &O : LI.loops())
      if (bruteOf(O).Body.count(BB->id()) &&
          (!Innermost ||
           bruteOf(O).Body.size() < bruteOf(Innermost).Body.size()))
        Innermost = O;
    EXPECT_EQ(LI.loopFor(BB), Innermost) << BB->name();
  }
  std::vector<Loop *> Order = LI.innerToOuter();
  ASSERT_EQ(Order.size(), Brute.size());
  for (size_t I = 0; I < Order.size(); ++I)
    EXPECT_EQ(Order[I]->header(), Brute[Brute.size() - 1 - I].Header);
}

std::vector<std::string> names(std::span<ir::BasicBlock *const> Blocks) {
  std::vector<std::string> Out;
  for (const ir::BasicBlock *BB : Blocks)
    Out.push_back(std::string(BB->name()));
  return Out;
}

} // namespace

TEST(LoopInfoTest, MultiLatchLoop) {
  // entry -> head; head -> a | exit; a -> head | b; b -> head.  The front
  // end never emits two latches, so the CFG is built by hand.
  ir::Function F("multi");
  ir::BasicBlock *Entry = F.createBlock("entry");
  ir::BasicBlock *Head = F.createBlock("L.header");
  ir::BasicBlock *A = F.createBlock("a");
  ir::BasicBlock *B = F.createBlock("b");
  ir::BasicBlock *Exit = F.createBlock("exit");
  ir::Argument *N = F.addArgument("n");
  ir::IRBuilder IB(F, Entry);
  IB.br(Head);
  IB.setInsertBlock(Head);
  IB.condBr(IB.binary(ir::Opcode::CmpGT, N, IB.constInt(0)), A, Exit);
  IB.setInsertBlock(A);
  IB.condBr(IB.binary(ir::Opcode::CmpGT, N, IB.constInt(1)), Head, B);
  IB.setInsertBlock(B);
  IB.br(Head);
  IB.setInsertBlock(Exit);
  IB.ret(N);
  F.recomputePreds();

  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  expectMatchesBruteForce(F, DT, LI);
  ASSERT_EQ(LI.loops().size(), 1u);
  Loop *L = LI.byName("L");
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(L->latches().size(), 2u);
  EXPECT_EQ(names(L->blocks()),
            (std::vector<std::string>{"L.header", "a", "b"}));
  EXPECT_EQ(L->parent(), nullptr);
  EXPECT_EQ(L->depth(), 1u);
  EXPECT_EQ(L->preheader(), Entry);
  EXPECT_FALSE(L->contains(Entry));
  EXPECT_FALSE(L->contains(Exit));
  EXPECT_EQ(names(L->exitBlocks()), (std::vector<std::string>{"exit"}));
}

TEST(LoopInfoTest, SiblingLoopsMatchBruteForce) {
  auto F = build("func f(n) {"
                 "  for L1: i = 1 to n {"
                 "    for L2: j = 1 to n { A[i, j] = 0; }"
                 "    for L3: j = 1 to n { A[i, j] = 1; }"
                 "  }"
                 "  for L4: i = 1 to n { B[i] = 0; }"
                 "  return 0;"
                 "}");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  expectMatchesBruteForce(*F, DT, LI);
  Loop *L1 = LI.byName("L1"), *L2 = LI.byName("L2"), *L3 = LI.byName("L3"),
       *L4 = LI.byName("L4");
  EXPECT_EQ(L2->depth(), 2u);
  EXPECT_EQ(L4->depth(), 1u);
  EXPECT_FALSE(L2->contains(L3->header()));
  EXPECT_FALSE(L3->contains(L2->header()));
  EXPECT_FALSE(L1->contains(L4->header()));
  EXPECT_TRUE(std::ranges::equal(L1->subLoops(), std::vector<Loop *>{L2, L3}));
  EXPECT_TRUE(std::ranges::equal(LI.topLevel(), std::vector<Loop *>{L1, L4}));
  // Headers in RPO are L1, L4, L2, L3 (the CFG walk leaves L1 by its exit
  // edge first); reversed, every child still precedes its parent.
  EXPECT_EQ(LI.innerToOuter(), (std::vector<Loop *>{L3, L2, L4, L1}));
}

TEST(LoopInfoTest, BreakExitMatchesBruteForce) {
  auto F = build("func f(n) {"
                 "  x = 0;"
                 "  loop L1 {"
                 "    x = x + 1;"
                 "    if (x > n) break;"
                 "    for L2: j = 1 to n { x = x + 2; if (x > 3 * n) break; }"
                 "  }"
                 "  return x;"
                 "}");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  expectMatchesBruteForce(*F, DT, LI);
  Loop *L1 = LI.byName("L1"), *L2 = LI.byName("L2");
  ASSERT_TRUE(L1 && L2);
  EXPECT_EQ(L2->parent(), L1);
  // L2 leaves through its test and its break, both into L1.
  EXPECT_GE(L2->exitingBlocks().size(), 2u);
  for (ir::BasicBlock *BB : L2->exitBlocks())
    EXPECT_TRUE(L1->contains(BB));
  // L1's break leaves the function's only loop nest.
  ASSERT_EQ(L1->exitBlocks().size(), 1u);
  EXPECT_EQ(LI.loopFor(L1->exitBlocks()[0]), nullptr);
}

TEST(LoopInfoTest, DeepNestMatchesBruteForce) {
  constexpr unsigned Depth = 200;
  auto F = build(bench::genNest(Depth));
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  expectMatchesBruteForce(*F, DT, LI);
  ASSERT_EQ(LI.loops().size(), Depth);
  std::vector<Loop *> Order = LI.innerToOuter();
  for (unsigned D = 1; D <= Depth; ++D) {
    Loop *L = LI.byName("L" + std::to_string(D));
    ASSERT_NE(L, nullptr);
    EXPECT_EQ(L->depth(), D);
    EXPECT_EQ(L->parent(), D == 1 ? nullptr
                                  : LI.byName("L" + std::to_string(D - 1)));
    EXPECT_EQ(Order[Depth - D], L);
  }
}

namespace {

/// Brute-force instruction dominance with DominatorTree's conventions:
/// across blocks the defining block must properly dominate; within a block
/// phis come first and otherwise position decides.
bool bruteInstrDominates(const ir::Function &F, const ir::Instruction *Def,
                         const ir::Instruction *I) {
  const ir::BasicBlock *DefBB = Def->parent(), *UseBB = I->parent();
  if (DefBB != UseBB)
    return bruteDominates(F, DefBB, UseBB);
  if (Def == I)
    return false;
  if (Def->isPhi() != I->isPhi())
    return Def->isPhi();
  for (const ir::Instruction *Inst : *DefBB) {
    if (Inst == Def)
      return true;
    if (Inst == I)
      return false;
  }
  ADD_FAILURE() << "instruction missing from its block";
  return false;
}

} // namespace

TEST(DominatorTest, InstructionQueriesMatchBruteForceAcrossInsertions) {
  const std::string Programs[] = {
      bench::genMixedClasses(4),
      bench::genNest(5),
      "func c(n) { if (n > 0) { if (n > 1) { x = 1; } else { x = 2; } }"
      " else { x = 3; } while (x < n) { x = x + 1; y = x * 2; } return x; }",
  };
  Lcg R(42);
  for (const std::string &Src : Programs) {
    auto F = build(Src);
    ssa::buildSSA(*F);
    DominatorTree DT(*F);
    std::vector<ir::BasicBlock *> Blocks;
    for (ir::BasicBlock *BB : F->blocks())
      if (reachable(*F, BB))
        Blocks.push_back(BB);
    auto pick = [&](const ir::BasicBlock *BB) {
      return BB->instructions()[size_t(R.range(0, int64_t(BB->size()) - 1))];
    };
    // Half the queries pair two instructions of one block.
    auto query = [&](const char *When) {
      for (unsigned Q = 0; Q < 2000; ++Q) {
        const ir::BasicBlock *A = Blocks[R.range(0, Blocks.size() - 1)];
        const ir::BasicBlock *B =
            R.range(0, 1) ? A : Blocks[R.range(0, Blocks.size() - 1)];
        const ir::Instruction *Def = pick(A), *Use = pick(B);
        ASSERT_EQ(DT.dominates(Def, Use), bruteInstrDominates(*F, Def, Use))
            << When << ": " << A->name() << " vs " << B->name();
        ASSERT_EQ(DT.dominates(A, B), bruteDominates(*F, A, B))
            << When << ": " << A->name() << " vs " << B->name();
      }
    };
    query("before inserting");
    // Insert after the phis and before the terminator, as exit-value
    // materialization does, once the blocks' order stamps are taken.
    for (unsigned K = 0; K < 40; ++K) {
      ir::BasicBlock *BB = Blocks[R.range(0, Blocks.size() - 1)];
      const int64_t Lo = int64_t(BB->phis().size());
      const int64_t Hi = int64_t(BB->size()) - 1;
      BB->insertAt(size_t(R.range(Lo, Hi)),
                   F->newInstr(ir::Opcode::Add,
                               {F->constant(K), F->constant(1)}));
      if (K % 8 == 7)
        query("after inserting");
    }
    query("after inserting");
  }
}
