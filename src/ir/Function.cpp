//===- ir/Function.cpp - IR functions --------------------------------------===//

#include "ir/Function.h"
#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace biv::ir;
using biv::support::Symbol;

Instruction *Function::newInstr(Opcode Op, std::initializer_list<Value *> Ops,
                                std::string_view N) {
  Instruction *I =
      A.create<Instruction>(A, Op, N.empty() ? std::string_view() : SI.internView(N));
  I->setSeq(allocateInstrSeq());
  for (Value *Op_ : Ops)
    I->addOperand(Op_);
  return I;
}

Instruction *Function::newInstr(Opcode Op, const std::vector<Value *> &Ops,
                                std::string_view N) {
  return newInstr(Op, std::span<Value *const>(Ops.data(), Ops.size()), N);
}

Instruction *Function::newInstr(Opcode Op, std::span<Value *const> Ops,
                                std::string_view N) {
  Instruction *I =
      A.create<Instruction>(A, Op, N.empty() ? std::string_view() : SI.internView(N));
  I->setSeq(allocateInstrSeq());
  for (Value *Op_ : Ops)
    I->addOperand(Op_);
  return I;
}

BasicBlock *Function::createBlock(std::string_view N) {
  unsigned Id = unsigned(Blocks.size());
  Blocks.push_back(A, A.create<BasicBlock>(uniqueName(N), Id, this));
  return Blocks.back();
}

Constant *Function::constant(int64_t V) {
  if (ConstSlots.empty())
    ConstSlots.resize(A, 16, nullptr);
  // splitmix64-style scramble so consecutive literals spread out.
  uint64_t H = uint64_t(V) * 0x9e3779b97f4a7c15ull;
  H ^= H >> 32;
  size_t Mask = ConstSlots.size() - 1;
  for (size_t I = size_t(H) & Mask;; I = (I + 1) & Mask) {
    Constant *C = ConstSlots[I];
    if (!C) {
      char Buf[24];
      int Len = std::snprintf(Buf, sizeof(Buf), "%lld", (long long)V);
      std::string_view Spelling(A.copyBytes(Buf, size_t(Len)), size_t(Len));
      C = A.create<Constant>(V, Spelling);
      ConstSlots[I] = C;
      if (++NumConsts * 4 > ConstSlots.size() * 3) {
        support::ArenaVector<Constant *> Old = ConstSlots;
        ConstSlots = support::ArenaVector<Constant *>();
        ConstSlots.resize(A, Old.size() * 2, nullptr);
        size_t NewMask = ConstSlots.size() - 1;
        for (Constant *E : Old) {
          if (!E)
            continue;
          uint64_t EH = uint64_t(E->value()) * 0x9e3779b97f4a7c15ull;
          EH ^= EH >> 32;
          size_t J = size_t(EH) & NewMask;
          while (ConstSlots[J])
            J = (J + 1) & NewMask;
          ConstSlots[J] = E;
        }
      }
      return C;
    }
    if (C->value() == V)
      return C;
  }
}

UndefValue *Function::undef() {
  if (!Undef)
    Undef = A.create<UndefValue>();
  return Undef;
}

void Function::ensureSymbolTables(Symbol Sym) {
  if (Sym < VarBySym.size())
    return;
  size_t N = size_t(Sym) + 1;
  if (N < SI.size())
    N = SI.size();
  VarBySym.resize(A, N, nullptr);
  ArrayBySym.resize(A, N, nullptr);
  ArgBySym.resize(A, N, nullptr);
  NextSuffix.resize(A, N, 0);
}

Argument *Function::addArgument(std::string_view N) {
  Symbol Sym = SI.intern(N);
  ensureSymbolTables(Sym);
  Argument *Arg = A.create<Argument>(SI.str(Sym), unsigned(Args.size()));
  Args.push_back(A, Arg);
  ArgBySym[Sym] = Arg;
  return Arg;
}

Argument *Function::findArgument(std::string_view N) const {
  Symbol Sym = SI.lookup(N);
  return Sym != support::NoSymbol && Sym < ArgBySym.size() ? ArgBySym[Sym]
                                                           : nullptr;
}

Var *Function::getOrCreateVar(std::string_view N) {
  Symbol Sym = SI.intern(N);
  ensureSymbolTables(Sym);
  if (Var *V = VarBySym[Sym])
    return V;
  Var *V = A.create<Var>(SI.str(Sym), unsigned(Vars.size()));
  Vars.push_back(A, V);
  VarBySym[Sym] = V;
  return V;
}

Array *Function::getOrCreateArray(std::string_view N, unsigned Rank) {
  Symbol Sym = SI.intern(N);
  ensureSymbolTables(Sym);
  if (Array *Existing = ArrayBySym[Sym]) {
    assert(Existing->rank() == Rank && "array redeclared with different rank");
    return Existing;
  }
  Array *Arr = A.create<Array>(SI.str(Sym), unsigned(Arrays.size()), Rank);
  Arrays.push_back(A, Arr);
  ArrayBySym[Sym] = Arr;
  return Arr;
}

Array *Function::findArray(std::string_view N) const {
  Symbol Sym = SI.lookup(N);
  return Sym != support::NoSymbol && Sym < ArrayBySym.size() ? ArrayBySym[Sym]
                                                             : nullptr;
}

void Function::recomputePreds() {
  for (BasicBlock *BB : Blocks)
    BB->clearPreds();
  for (BasicBlock *BB : Blocks)
    for (BasicBlock *Succ : BB->successors())
      Succ->addPred(BB);
}

void Function::replaceAllUsesWith(Value *From, Value *To) {
  assert(From != To && "replacing a value with itself");
  for (BasicBlock *BB : Blocks)
    for (Instruction *I : *BB)
      for (unsigned Idx = 0; Idx < I->numOperands(); ++Idx)
        if (I->operand(Idx) == From)
          I->setOperand(Idx, To);
}

unsigned Function::removeUnreachableBlocks() {
  if (Blocks.empty())
    return 0;
  // Mark blocks reachable from the entry.
  support::ScratchScope Scratch;
  support::Arena &S = Scratch.arena();
  support::ArenaVector<char> Reach;
  Reach.resize(S, Blocks.size(), 0);
  support::ArenaVector<BasicBlock *> Work;
  Work.push_back(S, entry());
  Reach[entry()->id()] = 1;
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    for (BasicBlock *Succ : BB->successors())
      if (!Reach[Succ->id()]) {
        Reach[Succ->id()] = 1;
        Work.push_back(S, Succ);
      }
  }
  // Prune phi incomings that flow from doomed blocks.
  for (BasicBlock *BB : Blocks) {
    if (!Reach[BB->id()])
      continue;
    for (Instruction *Phi : BB->phis())
      for (unsigned I = Phi->numOperands(); I-- > 0;)
        if (!Reach[Phi->blocks()[I]->id()])
          Phi->removeIncoming(I);
  }
  // Unlink the doomed blocks (their storage stays in the arena) and
  // renumber the survivors.
  unsigned Removed = 0;
  size_t Next = 0;
  for (BasicBlock *BB : Blocks) {
    if (Reach[BB->id()]) {
      BB->setId(unsigned(Next));
      Blocks[Next++] = BB;
    } else {
      ++Removed;
    }
  }
  while (Blocks.size() > Next)
    Blocks.pop_back();
  recomputePreds();
  return Removed;
}

std::span<BasicBlock *const>
Function::reachableRPO(support::Arena &Out) const {
  if (Blocks.empty())
    return {};
  BasicBlock **Order = Out.allocateArray<BasicBlock *>(Blocks.size());
  size_t N = 0;
  support::ScratchScope Scratch;
  support::Arena &S = Scratch.arena();
  support::ArenaVector<char> Visited;
  Visited.resize(S, Blocks.size(), 0);
  // Iterative DFS with an explicit stack of (block, next-successor) frames;
  // post order fills Order, which is then reversed in place.
  struct Frame {
    BasicBlock *BB;
    std::span<BasicBlock *const> Succs;
    size_t Next;
  };
  support::ArenaVector<Frame> Stack;
  Stack.reserve(S, Blocks.size());
  BasicBlock *Entry = Blocks.front();
  Visited[Entry->id()] = 1;
  Stack.push_back(S, {Entry, Entry->successors(), 0});
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.Next == F.Succs.size()) {
      Order[N++] = F.BB;
      Stack.pop_back();
      continue;
    }
    BasicBlock *Succ = F.Succs[F.Next++];
    if (!Visited[Succ->id()]) {
      Visited[Succ->id()] = 1;
      Stack.push_back(S, {Succ, Succ->successors(), 0});
    }
  }
  std::reverse(Order, Order + N);
  return {Order, N};
}

size_t Function::instructionCount() const {
  size_t N = 0;
  for (BasicBlock *BB : Blocks)
    N += BB->size();
  return N;
}

unsigned Function::renumberInstructions() {
  unsigned Next = 0;
  for (BasicBlock *BB : Blocks)
    for (Instruction *I : *BB)
      I->setSeq(Next++);
  InstrSeqBound = Next;
  return Next;
}

std::string_view Function::uniqueName(std::string_view Base) {
  Symbol Sym = SI.intern(Base);
  ensureSymbolTables(Sym);
  uint32_t Counter = NextSuffix[Sym]++;
  if (Counter == 0)
    return SI.str(Sym);
  char Buf[16];
  int Len = std::snprintf(Buf, sizeof(Buf), ".%u", Counter);
  std::string_view Spelling = SI.str(Sym);
  char *P = static_cast<char *>(A.allocate(Spelling.size() + size_t(Len), 1));
  std::memcpy(P, Spelling.data(), Spelling.size());
  std::memcpy(P + Spelling.size(), Buf, size_t(Len));
  return std::string_view(P, Spelling.size() + size_t(Len));
}
