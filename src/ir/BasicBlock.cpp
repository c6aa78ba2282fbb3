//===- ir/BasicBlock.cpp - CFG basic blocks --------------------------------===//

#include "ir/BasicBlock.h"
#include "ir/Function.h"

using namespace biv::ir;

biv::support::Arena &BasicBlock::arena() const { return Parent->arena(); }

Instruction *BasicBlock::append(Instruction *I) {
  assert((Insts.empty() || !Insts.back()->isTerminator()) &&
         "appending past a terminator");
  I->setParent(this);
  Insts.push_back(arena(), I);
  OrderValid = false;
  return I;
}

Instruction *BasicBlock::insertAt(size_t Pos, Instruction *I) {
  assert(Pos <= Insts.size() && "insert position out of range");
  I->setParent(this);
  Insts.insert(arena(), Pos, I);
  OrderValid = false;
  return I;
}

Instruction *BasicBlock::insertBeforeTerminator(Instruction *I) {
  size_t Pos = Insts.size();
  if (Pos > 0 && Insts.back()->isTerminator())
    --Pos;
  return insertAt(Pos, I);
}

Instruction *BasicBlock::take(Instruction *I) {
  for (size_t Idx = 0; Idx < Insts.size(); ++Idx)
    if (Insts[Idx] == I) {
      Insts.erase(Idx);
      I->setParent(nullptr);
      OrderValid = false;
      return I;
    }
  assert(false && "instruction not in this block");
  return nullptr;
}

void BasicBlock::addPred(BasicBlock *BB) { Preds.push_back(arena(), BB); }

bool BasicBlock::comesBefore(const Instruction *A, const Instruction *B) const {
  assert(A->parent() == this && B->parent() == this &&
         "order query on instructions of another block");
  if (!OrderValid) {
    unsigned Pos = 0;
    for (Instruction *I : Insts)
      I->OrderStamp = Pos++;
    OrderValid = true;
  }
  return A->OrderStamp < B->OrderStamp;
}

Instruction *BasicBlock::terminator() const {
  if (Insts.empty() || !Insts.back()->isTerminator())
    return nullptr;
  return Insts.back();
}

std::span<BasicBlock *const> BasicBlock::successors() const {
  Instruction *T = terminator();
  if (!T || T->opcode() == Opcode::Ret)
    return {};
  return {T->blocks().begin(), T->blocks().size()};
}

std::span<Instruction *const> BasicBlock::phis() const {
  size_t N = 0;
  while (N < Insts.size() && Insts[N]->isPhi())
    ++N;
  return {Insts.begin(), N};
}
