//===- ivclass/SSAGraph.cpp - Per-loop SSA graph and Tarjan SCCs ---------------===//

#include "ivclass/SSAGraph.h"
#include <algorithm>
#include <cassert>

using namespace biv;
using namespace biv::ivclass;

SSAGraph::SSAGraph(const analysis::Loop &L, const analysis::LoopInfo &LI,
                   std::span<unsigned> SeqToNode, support::Arena &Scratch)
    : Loop(L), Scratch(Scratch), SeqToNode(SeqToNode) {
  // Collect the member instructions: blocks whose innermost loop is L.
  size_t NumNodes = 0;
  for (ir::BasicBlock *BB : L.blocks())
    if (LI.loopFor(BB) == &L)
      NumNodes += BB->size();
  Nodes.reserve(Scratch, NumNodes);
  for (ir::BasicBlock *BB : L.blocks()) {
    if (LI.loopFor(BB) != &L)
      continue;
    for (ir::Instruction *I : *BB) {
      assert(I->seq() < SeqToNode.size() && "instructions not numbered");
      SeqToNode[I->seq()] = unsigned(Nodes.size());
      Nodes.push_back(Scratch, I);
    }
  }

  // CSR adjacency, one pass to count and one to fill.
  const unsigned N = Nodes.size();
  EdgeOffsets.resize(Scratch, N + 1, 0);
  auto memberOf = [&](const ir::Value *Op) -> unsigned {
    const auto *OpInst = ir::dyn_cast<ir::Instruction>(Op);
    return OpInst ? nodeIndex(OpInst) : NoNode;
  };
  for (unsigned Idx = 0; Idx < N; ++Idx)
    for (const ir::Value *Op : Nodes[Idx]->operands())
      if (memberOf(Op) != NoNode)
        ++EdgeOffsets[Idx + 1];
  for (unsigned Idx = 0; Idx < N; ++Idx)
    EdgeOffsets[Idx + 1] += EdgeOffsets[Idx];
  Edges.resize(Scratch, EdgeOffsets[N]);
  for (unsigned Idx = 0, Fill = 0; Idx < N; ++Idx)
    for (const ir::Value *Op : Nodes[Idx]->operands()) {
      unsigned W = memberOf(Op);
      if (W != NoNode)
        Edges[Fill++] = W;
    }
}

SSAGraph::~SSAGraph() {
  for (const ir::Instruction *I : Nodes)
    SeqToNode[I->seq()] = NoNode;
}

std::span<const SCR> SSAGraph::stronglyConnectedRegions() const {
  // Iterative Tarjan so deep use chains in generated benchmarks cannot
  // overflow the call stack.  All bookkeeping is flat scratch sized to the
  // graph, and so is the result: regions are slices of one node array.
  const unsigned N = Nodes.size();
  constexpr unsigned None = ~0u;
  support::ArenaVector<unsigned> Index, LowLink, Stack;
  Index.resize(Scratch, N, None);
  LowLink.resize(Scratch, N, None);
  Stack.reserve(Scratch, N);
  support::ArenaVector<char> OnStack;
  OnStack.resize(Scratch, N, 0);
  // Every node lands in exactly one region and there are at most N
  // regions, so neither array grows and the slices taken below stay valid.
  support::ArenaVector<ir::Instruction *> Flat;
  Flat.reserve(Scratch, N);
  support::ArenaVector<SCR> Regions;
  Regions.reserve(Scratch, N);
  unsigned NextIndex = 0;

  struct Frame {
    unsigned Node;
    unsigned NextEdge; // index into Edges, runs to EdgeOffsets[Node + 1]
  };
  support::ArenaVector<Frame> CallStack;
  CallStack.reserve(Scratch, N);

  for (unsigned Root = 0; Root < N; ++Root) {
    if (Index[Root] != None)
      continue;
    CallStack.push_back(Scratch, {Root, EdgeOffsets[Root]});
    Index[Root] = LowLink[Root] = NextIndex++;
    Stack.push_back(Scratch, Root);
    OnStack[Root] = 1;

    while (!CallStack.empty()) {
      Frame &F = CallStack.back();
      if (F.NextEdge < EdgeOffsets[F.Node + 1]) {
        unsigned W = Edges[F.NextEdge++];
        if (Index[W] == None) {
          Index[W] = LowLink[W] = NextIndex++;
          Stack.push_back(Scratch, W);
          OnStack[W] = 1;
          CallStack.push_back(Scratch, {W, EdgeOffsets[W]});
        } else if (OnStack[W]) {
          LowLink[F.Node] = std::min(LowLink[F.Node], Index[W]);
        }
        continue;
      }
      // Finished this node: pop an SCR if it is a root.
      unsigned V = F.Node;
      CallStack.pop_back();
      if (!CallStack.empty()) {
        unsigned Parent = CallStack.back().Node;
        LowLink[Parent] = std::min(LowLink[Parent], LowLink[V]);
      }
      if (LowLink[V] != Index[V])
        continue;
      const size_t Begin = Flat.size();
      while (true) {
        unsigned W = Stack.back();
        Stack.pop_back();
        OnStack[W] = 0;
        Flat.push_back(Scratch, Nodes[W]);
        if (W == V)
          break;
      }
      SCR Region;
      Region.Nodes = {Flat.data() + Begin, Flat.size() - Begin};
      if (Region.Nodes.size() > 1) {
        Region.Trivial = false;
      } else {
        // Single node: trivial unless it references itself.
        ir::Instruction *Only = Region.Nodes.front();
        Region.Trivial = true;
        for (ir::Value *Op : Only->operands())
          if (Op == Only)
            Region.Trivial = false;
      }
      Regions.push_back(Scratch, Region);
    }
  }
  return {Regions.data(), Regions.size()};
}
