//===- ivclass/SSAGraph.h - Per-loop SSA graph and Tarjan SCCs --*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's SSA graph (section 3): when analyzing a loop, vertices are
/// the operations in that loop and edges run from each operation to its
/// source operands.  Tarjan's algorithm [Tar72] emits strongly connected
/// regions only after everything reachable from them, so "when an SCR is
/// identified, all the source operands reaching the SCR will already have
/// been visited and [classified]" -- the property the classifier exploits.
///
/// Instructions belonging to a *nested* loop are excluded from the graph;
/// operands defined there are treated as opaque (paper section 5.3), except
/// for exit values the analysis has already materialized.
///
/// Representation: nodes are found by Instruction::seq() (dense per-function
/// numbering) through a seq-indexed table that the caller owns and every
/// loop of the function reuses, and edges live in one CSR-style array built
/// once at construction.  The graph, its edges, Tarjan's bookkeeping and
/// the region lists are scratch (DESIGN.md §11): they come from an arena
/// the caller rewinds when the loop is done, so none of it touches the
/// general heap and all of it is proportional to the loop.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_SSAGRAPH_H
#define BEYONDIV_IVCLASS_SSAGRAPH_H

#include "analysis/LoopInfo.h"
#include "ir/Function.h"
#include "support/Arena.h"
#include <span>

namespace biv {
namespace ivclass {

/// One strongly connected region of the SSA graph.
struct SCR {
  /// The region's nodes: a slice of one array shared by all regions.
  std::span<ir::Instruction *const> Nodes;

  /// Trivial = single node without a self edge; never a recurrence.
  bool Trivial = true;
};

/// The SSA graph of one loop, allocated in a scratch arena.
class SSAGraph {
public:
  static constexpr unsigned NoNode = ~0u;

  /// Builds the graph of \p L in \p Scratch: all instructions whose block
  /// is in \p L but in none of L's sub-loops.  The function's instructions
  /// must be numbered (Function::renumberInstructions) with every seq below
  /// SeqToNode.size().  \p SeqToNode maps Instruction::seq() to node index
  /// and must hold only NoNode on entry; the graph fills its own nodes'
  /// slots and resets exactly those slots on destruction, so one table
  /// serves every loop.
  SSAGraph(const analysis::Loop &L, const analysis::LoopInfo &LI,
           std::span<unsigned> SeqToNode, support::Arena &Scratch);
  ~SSAGraph();
  SSAGraph(const SSAGraph &) = delete;
  SSAGraph &operator=(const SSAGraph &) = delete;

  const analysis::Loop &loop() const { return Loop; }
  std::span<ir::Instruction *const> nodes() const { return Nodes; }

  /// Position of \p I in nodes(), or NoNode when it is not a member.
  unsigned nodeIndex(const ir::Instruction *I) const {
    return I->seq() < SeqToNode.size() ? SeqToNode[I->seq()] : NoNode;
  }

  /// Strongly connected regions in Tarjan pop order: every SCR appears
  /// after all SCRs it (transitively) reads from.  The regions and their
  /// node lists live in the graph's scratch arena.
  std::span<const SCR> stronglyConnectedRegions() const;

private:
  const analysis::Loop &Loop;
  support::Arena &Scratch;
  support::ArenaVector<ir::Instruction *> Nodes;
  /// Instruction::seq() -> node index, NoNode for non-members; the caller's
  /// function-sized table.
  std::span<unsigned> SeqToNode;
  /// CSR adjacency: successors of node i are Edges[EdgeOffsets[i] ..
  /// EdgeOffsets[i+1]).
  support::ArenaVector<unsigned> EdgeOffsets;
  support::ArenaVector<unsigned> Edges;
};

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_SSAGRAPH_H
