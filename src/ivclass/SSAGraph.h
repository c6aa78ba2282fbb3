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
/// numbering) through a seq-indexed scratch vector that the caller owns and
/// every loop of the function reuses, and edges live in one CSR-style array
/// built once at construction, so both graph construction and Tarjan's walk
/// are allocation-free per node and touch no ordered containers.  Apart from
/// that shared scratch, a graph's storage is proportional to its loop.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_SSAGRAPH_H
#define BEYONDIV_IVCLASS_SSAGRAPH_H

#include "analysis/LoopInfo.h"
#include "ir/Function.h"
#include <span>
#include <vector>

namespace biv {
namespace ivclass {

/// One strongly connected region of the SSA graph.
struct SCR {
  /// The region's nodes: a view into the SCRList that holds the region.
  std::span<ir::Instruction *const> Nodes;

  /// Trivial = single node without a self edge; never a recurrence.
  bool Trivial = true;
};

/// Strongly connected regions in Tarjan pop order.  Every region's node
/// list is a slice of one array, so listing the regions costs two
/// allocations however many there are.  Movable, not copyable: the
/// regions point into the list's own array.
class SCRList {
public:
  SCRList() = default;
  SCRList(SCRList &&) = default;
  SCRList(const SCRList &) = delete;
  SCRList &operator=(const SCRList &) = delete;

  std::vector<SCR>::const_iterator begin() const { return Regions.begin(); }
  std::vector<SCR>::const_iterator end() const { return Regions.end(); }
  size_t size() const { return Regions.size(); }

private:
  friend class SSAGraph;
  std::vector<ir::Instruction *> Flat;
  std::vector<SCR> Regions;
};

/// The SSA graph of one loop.
class SSAGraph {
public:
  static constexpr unsigned NoNode = ~0u;

  /// Builds the graph of \p L: all instructions whose block is in \p L but
  /// in none of L's sub-loops.  Numbers the function's instructions densely
  /// when that has not happened yet.  \p SeqToNode maps Instruction::seq()
  /// to node index and must hold only NoNode on entry; the graph grows it to
  /// the function's seq bound, fills its own nodes' slots, and resets
  /// exactly those slots on destruction, so one vector serves every loop.
  SSAGraph(const analysis::Loop &L, const analysis::LoopInfo &LI,
           std::vector<unsigned> &SeqToNode);
  ~SSAGraph();
  SSAGraph(const SSAGraph &) = delete;
  SSAGraph &operator=(const SSAGraph &) = delete;

  const analysis::Loop &loop() const { return Loop; }
  const std::vector<ir::Instruction *> &nodes() const { return Nodes; }

  /// Position of \p I in nodes(), or NoNode when it is not a member.
  unsigned nodeIndex(const ir::Instruction *I) const {
    return I->seq() < SeqToNode.size() ? SeqToNode[I->seq()] : NoNode;
  }

  /// Strongly connected regions in Tarjan pop order: every SCR appears
  /// after all SCRs it (transitively) reads from.
  SCRList stronglyConnectedRegions() const;

private:
  const analysis::Loop &Loop;
  std::vector<ir::Instruction *> Nodes;
  /// Instruction::seq() -> node index, NoNode for non-members; the caller's
  /// function-sized scratch.
  std::vector<unsigned> &SeqToNode;
  /// CSR adjacency: successors of node i are Edges[EdgeOffsets[i] ..
  /// EdgeOffsets[i+1]).
  std::vector<unsigned> EdgeOffsets;
  std::vector<unsigned> Edges;
};

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_SSAGRAPH_H
