//===- ir/BasicBlock.h - CFG basic blocks -----------------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Basic blocks: ordered instruction lists linked into a control flow graph.
/// Blocks and their instruction lists live in the owning function's arena;
/// erase/take unlink without freeing (batch free with the function).
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IR_BASICBLOCK_H
#define BEYONDIV_IR_BASICBLOCK_H

#include "ir/Instruction.h"
#include <span>
#include <string_view>

namespace biv {
namespace ir {

class Function;

/// A maximal straight-line sequence of instructions ending in a terminator.
class BasicBlock {
public:
  /// Use Function::createBlock; \p N must be interned in the function.
  BasicBlock(std::string_view N, unsigned Id, Function *F)
      : Name(N), Id(Id), Parent(F) {}

  std::string_view name() const { return Name; }
  /// Stable, dense index within the parent function; analyses use it to key
  /// vectors instead of pointer-keyed maps.
  unsigned id() const { return Id; }
  void setId(unsigned NewId) { Id = NewId; }
  Function *parent() const { return Parent; }

  bool empty() const { return Insts.empty(); }
  size_t size() const { return Insts.size(); }

  /// Appends \p I; asserts that nothing follows an existing terminator.
  Instruction *append(Instruction *I);

  /// Inserts \p I at position \p Pos (0 = front).
  Instruction *insertAt(size_t Pos, Instruction *I);

  /// Inserts \p I immediately before the terminator (or at the end when the
  /// block has none yet).
  Instruction *insertBeforeTerminator(Instruction *I);

  /// Unlinks \p I from the block.  The caller must have already rewritten
  /// all uses; the storage stays in the function's arena.
  void erase(Instruction *I) { take(I); }

  /// Unlinks \p I and returns it (e.g. to re-insert elsewhere).
  Instruction *take(Instruction *I);

  /// Unlinks every instruction for which \p ShouldRemove returns true in one
  /// stable left-to-right compaction.  O(block size) total; bulk sweeps that
  /// call erase() per instruction shift the tail each time and go quadratic
  /// when most of a block dies.
  template <typename Pred> unsigned removeInstrsIf(Pred ShouldRemove) {
    OrderValid = false;
    size_t Out = 0;
    for (size_t Idx = 0; Idx < Insts.size(); ++Idx) {
      Instruction *I = Insts[Idx];
      if (ShouldRemove(I)) {
        I->setParent(nullptr);
        continue;
      }
      Insts[Out++] = I;
    }
    unsigned Removed = unsigned(Insts.size() - Out);
    Insts.truncate(Out);
    return Removed;
  }

  /// True when \p A comes before \p B; both must be in this block.  O(1)
  /// from per-instruction order stamps, which are retaken (O(block size))
  /// on the first query after the instruction list changed.  The stamps
  /// are written on a const block, so concurrent queries on one block are
  /// not supported.
  bool comesBefore(const Instruction *A, const Instruction *B) const;

  /// Returns the terminator, or null for an unfinished block.
  Instruction *terminator() const;

  /// Successor blocks (a view into the terminator's block list; empty for
  /// Ret or an unfinished block).
  std::span<BasicBlock *const> successors() const;

  /// Predecessors; valid after Function::recomputePreds().
  std::span<BasicBlock *const> predecessors() const {
    return {Preds.begin(), Preds.size()};
  }
  void clearPreds() { Preds.clear(); }
  void addPred(BasicBlock *BB);

  /// Phis at the top of the block (a view of the leading phi run).
  std::span<Instruction *const> phis() const;

  // Iteration over instructions (as raw pointers).
  auto begin() const { return Insts.begin(); }
  auto end() const { return Insts.end(); }
  const support::ArenaVector<Instruction *> &instructions() const {
    return Insts;
  }

private:
  support::Arena &arena() const;

  std::string_view Name;
  unsigned Id;
  Function *Parent;
  support::ArenaVector<Instruction *> Insts;
  support::ArenaVector<BasicBlock *> Preds;
  /// False once Insts changed after the instructions' order stamps were
  /// taken.
  mutable bool OrderValid = false;
};

} // namespace ir
} // namespace biv

#endif // BEYONDIV_IR_BASICBLOCK_H
