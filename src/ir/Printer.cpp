//===- ir/Printer.cpp - Textual IR dump ------------------------------------===//

#include "ir/Printer.h"

using namespace biv::ir;

namespace {
std::string str(std::string_view S) { return std::string(S); }
} // namespace

void Printer::numberValues() {
  Names.resize(F.instrSeqBound());
  unsigned Next = 0;
  for (const BasicBlock *BB : F.blocks())
    for (const Instruction *I : *BB) {
      assert(I->seq() < Names.size() && "instruction seq past the bound");
      std::string &N = Names[I->seq()];
      if (!I->name().empty())
        (N = "%") += I->name();
      else
        (N = "%t") += std::to_string(Next++);
    }
}

std::string Printer::nameOf(const Value *V) const {
  if (const auto *C = dyn_cast<Constant>(V))
    return std::to_string(C->value());
  if (const auto *A = dyn_cast<Argument>(V))
    return ::str(A->name());
  if (isa<UndefValue>(V))
    return "undef";
  const auto *I = cast<Instruction>(V);
  if (I->seq() < Names.size() && !Names[I->seq()].empty())
    return Names[I->seq()];
  return "%<unknown>";
}

std::string Printer::str(const Instruction *I) const {
  std::string Out;
  auto operands = [&](unsigned From = 0) {
    std::string S;
    for (unsigned Idx = From; Idx < I->numOperands(); ++Idx) {
      if (Idx != From)
        S += ", ";
      S += nameOf(I->operand(Idx));
    }
    return S;
  };
  switch (I->opcode()) {
  case Opcode::Phi: {
    Out = nameOf(I) + " = phi";
    for (unsigned Idx = 0; Idx < I->numOperands(); ++Idx) {
      Out += Idx == 0 ? " " : ", ";
      Out += "[" + nameOf(I->operand(Idx)) + ", ";
      Out += I->blocks()[Idx]->name();
      Out += "]";
    }
    return Out;
  }
  case Opcode::LoadVar:
    return nameOf(I) + " = loadvar @" + ::str(I->variable()->name());
  case Opcode::StoreVar:
    return "storevar @" + ::str(I->variable()->name()) + ", " + operands();
  case Opcode::ArrayLoad:
    return nameOf(I) + " = aload " + ::str(I->array()->name()) + "[" +
           operands() + "]";
  case Opcode::ArrayStore:
    return "astore " + ::str(I->array()->name()) + "[" + operands(1) +
           "], " + nameOf(I->operand(0));
  case Opcode::Br:
    return "br " + ::str(I->blocks()[0]->name());
  case Opcode::CondBr:
    return "condbr " + nameOf(I->operand(0)) + ", " +
           ::str(I->blocks()[0]->name()) + ", " +
           ::str(I->blocks()[1]->name());
  case Opcode::Ret:
    return I->numOperands() ? "ret " + operands() : "ret";
  default:
    return nameOf(I) + " = " + opcodeName(I->opcode()) + " " + operands();
  }
}

std::string Printer::str() const {
  std::string Out = "func " + F.name() + "(";
  for (const Argument *A : F.arguments()) {
    if (A->index())
      Out += ", ";
    Out += A->name();
  }
  Out += ") {\n";
  for (const BasicBlock *BB : F.blocks()) {
    Out += BB->name();
    Out += ":";
    if (!BB->predecessors().empty()) {
      Out += "  ; preds:";
      for (const BasicBlock *P : BB->predecessors()) {
        Out += " ";
        Out += P->name();
      }
    }
    Out += "\n";
    for (const Instruction *I : *BB)
      Out += "  " + str(I) + "\n";
  }
  Out += "}\n";
  return Out;
}

std::string biv::ir::toString(const Function &F) { return Printer(F).str(); }
