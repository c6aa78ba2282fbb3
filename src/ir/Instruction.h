//===- ir/Instruction.h - IR instructions -----------------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Instruction class: an operation tuple (op, operands...) that is itself
/// a Value, mirroring the paper's tuple representation (op, left, right,
/// ssalink).  Phi incoming blocks and branch successors are kept in a block
/// list parallel to (phi) or separate from (branches) the value operands.
///
/// Instructions and their operand/block lists live in the owning function's
/// arena (create them through Function::newInstr); removing an instruction
/// from a block merely unlinks it -- the storage is reclaimed when the
/// function is destroyed.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IR_INSTRUCTION_H
#define BEYONDIV_IR_INSTRUCTION_H

#include "ir/Opcode.h"
#include "ir/Storage.h"
#include "ir/Value.h"
#include "support/Arena.h"

namespace biv {
namespace ir {

class BasicBlock;

/// A single IR operation.
class Instruction : public Value {
public:
  /// Use Function::newInstr; the arena must be the owning function's.
  Instruction(support::Arena &A, Opcode Op, std::string_view N = {})
      : Value(ValueKind::Instruction, N), A(&A), Op(Op) {}

  Opcode opcode() const { return Op; }

  BasicBlock *parent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  /// Sentinel for an instruction that has not been numbered yet.
  static constexpr unsigned NoSeq = ~0u;

  /// Dense per-function sequence number assigned by
  /// Function::renumberInstructions(); analyses key flat vectors by it
  /// instead of pointer-keyed maps.  Assigned at creation (unique,
  /// possibly sparse); renumberInstructions() compacts to a dense 0..N-1.
  unsigned seq() const { return Seq; }
  void setSeq(unsigned S) { Seq = S; }

  unsigned numOperands() const { return unsigned(Operands.size()); }
  Value *operand(unsigned I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }
  void setOperand(unsigned I, Value *V) {
    assert(I < Operands.size() && "operand index out of range");
    Operands[I] = V;
  }
  const support::ArenaVector<Value *> &operands() const { return Operands; }
  void addOperand(Value *V) { Operands.push_back(*A, V); }

  /// Blocks associated with this instruction: phi incoming blocks (parallel
  /// to the operands) or branch successors.
  const support::ArenaVector<BasicBlock *> &blocks() const { return Blocks; }
  void addBlock(BasicBlock *BB) { Blocks.push_back(*A, BB); }
  void setBlock(unsigned I, BasicBlock *BB) {
    assert(I < Blocks.size() && "block index out of range");
    Blocks[I] = BB;
  }

  /// For a phi, returns the operand flowing in from predecessor \p BB.
  Value *incomingFor(const BasicBlock *BB) const;
  /// For a phi, adds an (operand, predecessor) pair.
  void addIncoming(Value *V, BasicBlock *BB) {
    assert(Op == Opcode::Phi && "addIncoming on non-phi");
    Operands.push_back(*A, V);
    Blocks.push_back(*A, BB);
  }

  /// For a phi, removes the (operand, predecessor) pair at \p I.
  void removeIncoming(unsigned I) {
    assert(Op == Opcode::Phi && "removeIncoming on non-phi");
    assert(I < Operands.size() && "incoming index out of range");
    Operands.erase(I);
    Blocks.erase(I);
  }

  /// Scalar variable of a LoadVar/StoreVar -- and, after SSA construction,
  /// of every phi the builder placed (the variable the phi merges); null
  /// otherwise.
  Var *variable() const { return Variable; }
  void setVariable(Var *V) { Variable = V; }

  /// Array of an ArrayLoad/ArrayStore, null otherwise.
  Array *array() const { return Arr; }
  void setArray(Array *A) { Arr = A; }

  bool isPhi() const { return Op == Opcode::Phi; }
  bool isTerminator() const { return ir::isTerminator(Op); }
  bool isCompare() const { return ir::isCompare(Op); }

  /// True when this instruction writes memory or transfers control, i.e.
  /// must not be removed even if its value is unused.
  bool hasSideEffects() const {
    return Op == Opcode::StoreVar || Op == Opcode::ArrayStore ||
           isTerminator();
  }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Instruction;
  }

private:
  friend class BasicBlock;

  support::Arena *A;
  Opcode Op;
  support::ArenaVector<Value *> Operands;
  support::ArenaVector<BasicBlock *> Blocks;
  BasicBlock *Parent = nullptr;
  Var *Variable = nullptr;
  Array *Arr = nullptr;
  unsigned Seq = NoSeq;
  /// Position in the parent block when the block last stamped its order
  /// (BasicBlock::comesBefore); stale while the block's stamps are.
  unsigned OrderStamp = 0;
};

} // namespace ir
} // namespace biv

#endif // BEYONDIV_IR_INSTRUCTION_H
