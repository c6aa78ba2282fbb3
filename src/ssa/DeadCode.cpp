//===- ssa/DeadCode.cpp - Dead code elimination -------------------------------===//

#include "ssa/DeadCode.h"
#include "support/Arena.h"
#include "support/Stats.h"
#include <cstdint>

using namespace biv;

unsigned biv::ssa::removeDeadCode(ir::Function &F) {
  static const stats::Counter NumDceRemoved("ssa.dce_removed");
  // Liveness is a bitmap over Instruction::seq() (DESIGN.md §11).
  const unsigned NumInstrs = F.renumberInstructions();
  support::ScratchScope Scratch;
  support::Arena &S = Scratch.arena();
  support::ArenaVector<uint8_t> Live;
  Live.resize(S, NumInstrs, 0);
  support::ArenaVector<const ir::Instruction *> Work;
  // Roots: side effects and terminators.
  for (const ir::BasicBlock *BB : F.blocks())
    for (const ir::Instruction *I : *BB)
      if (I->hasSideEffects() && !Live[I->seq()]) {
        Live[I->seq()] = 1;
        Work.push_back(S, I);
      }
  // Transitive marking through operands.
  while (!Work.empty()) {
    const ir::Instruction *I = Work.back();
    Work.pop_back();
    for (const ir::Value *Op : I->operands())
      if (const auto *Def = ir::dyn_cast<ir::Instruction>(Op))
        if (!Live[Def->seq()]) {
          Live[Def->seq()] = 1;
          Work.push_back(S, Def);
        }
  }
  // Sweep: one stable compaction per block.
  unsigned Removed = 0;
  for (ir::BasicBlock *BB : F.blocks())
    Removed += BB->removeInstrsIf(
        [&](const ir::Instruction *I) { return !Live[I->seq()]; });
  NumDceRemoved.bump(Removed);
  return Removed;
}
