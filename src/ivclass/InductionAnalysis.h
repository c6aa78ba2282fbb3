//===- ivclass/InductionAnalysis.h - The paper's algorithm ------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified induction-variable classification algorithm.
///
/// Loops are processed inner to outer (section 5.3).  For each loop the SSA
/// graph is built and Tarjan's algorithm emits strongly connected regions in
/// an order that guarantees all operands of a region are classified first.
/// Trivial regions are classified by an algebra over the operand classes
/// (section 5.1); a lone loop-header phi is a wrap-around variable (4.1);
/// cycles of header phis are periodic families (4.2); single-header-phi
/// cycles are evaluated symbolically to X' = A*X + B(h) and solved exactly
/// (linear 3.1, polynomial/geometric 4.3) or downgraded to monotonic (4.4).
/// Countable inner loops get their trip count (5.2) and materialized exit
/// values (5.3, Figures 7-9) so the enclosing loop sees ordinary operands.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_INDUCTIONANALYSIS_H
#define BEYONDIV_IVCLASS_INDUCTIONANALYSIS_H

#include "analysis/DominatorTree.h"
#include "analysis/LoopInfo.h"
#include "ivclass/Classification.h"
#include "ivclass/TripCount.h"
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace biv {
namespace ivclass {

/// Classification storage for one loop, sized to the entries it holds so a
/// loop's table stays proportional to the loop rather than to the function.
/// Entries are found through an open-addressed index (power-of-two
/// capacity, linear probing, at most 3/4 full) hashed on the dense
/// Instruction::seq() for instructions and on the address for constants,
/// arguments and undef; the index stores entry positions, so a probe
/// compares values for identity.  The index, the entry list and each
/// entry's storage live in the function's arena (DESIGN.md §11), so
/// references stay stable across inserts and a new entry costs a pointer
/// bump; the table runs the entries' destructors, so it must be destroyed
/// before the function.  The insertion order is recorded so iteration is
/// deterministic.
class ClassTable {
public:
  struct Entry {
    const ir::Value *V;
    Classification *C;
  };

  explicit ClassTable(support::Arena &A) : A(&A) {}
  /// Leaves \p O empty, so only one table destroys the entries.
  ClassTable(ClassTable &&O) noexcept
      : A(O.A), Index(std::exchange(O.Index, {})),
        Entries(std::exchange(O.Entries, {})),
        Held(std::exchange(O.Held, {})),
        HeldRings(std::exchange(O.HeldRings, {})) {}
  ClassTable &operator=(ClassTable &&) = delete;
  ~ClassTable();

  /// The entry for \p V, or null when none has been recorded.
  Classification *find(const ir::Value *V);

  /// The entry for \p V, default-constructed on first touch.  \p Created
  /// tells the caller whether to fill it in.
  Classification &getOrCreate(const ir::Value *V, bool &Created);

  /// Entries in insertion order (value, classification).
  std::span<const Entry> entries() const { return Entries; }

  /// Keeps \p C as long as the table and returns its stable address, for a
  /// wrap-around's inner class.
  const Classification *hold(Classification C);
  /// Keeps a copy of \p Values as long as the table, for a periodic
  /// family's ring.
  std::span<const Affine> hold(std::span<const Affine> Values);

private:
  static constexpr uint32_t EmptySlot = ~uint32_t(0);

  /// The index slot holding \p V's entry position, or the empty slot where
  /// it belongs.  The index must be non-empty.
  uint32_t &slotFor(const ir::Value *V);
  void rehash(size_t NewCap);

  support::Arena *A;
  support::ArenaVector<uint32_t> Index;
  support::ArenaVector<Entry> Entries;
  /// What hold() keeps, destroyed with the table.
  support::ArenaVector<Classification *> Held;
  support::ArenaVector<std::span<Affine>> HeldRings;
};

/// Runs the paper's algorithm over a function and answers classification
/// queries per (value, loop) pair.
class InductionAnalysis {
public:
  struct Options {
    /// Insert exit-value instructions for countable inner loops so outer
    /// loops classify through them (Figures 8 and 9).  Disable to see the
    /// paper's "treated as unknown" fallback.
    bool MaterializeExitValues = true;

    /// Multi-branch loop summarization (Summarize.h): after the classifier
    /// punts on a loop, conjecture a period-k branch cycle by sampling the
    /// interpreter and prove exact per-phase closed forms.  Off by default
    /// (the --summarize pipeline flag).
    bool Summarize = false;
  };

  struct Stats {
    unsigned Regions = 0;
    unsigned LinearFamilies = 0;
    unsigned PolynomialFamilies = 0;
    unsigned GeometricFamilies = 0;
    unsigned PeriodicFamilies = 0;
    unsigned WrapArounds = 0;
    unsigned MonotonicRegions = 0;
    unsigned UnknownRegions = 0;
    unsigned ExitValuesMaterialized = 0;

    /// Accumulates \p O (batch drivers merge per-function stats).
    Stats &operator+=(const Stats &O) {
      Regions += O.Regions;
      LinearFamilies += O.LinearFamilies;
      PolynomialFamilies += O.PolynomialFamilies;
      GeometricFamilies += O.GeometricFamilies;
      PeriodicFamilies += O.PeriodicFamilies;
      WrapArounds += O.WrapArounds;
      MonotonicRegions += O.MonotonicRegions;
      UnknownRegions += O.UnknownRegions;
      ExitValuesMaterialized += O.ExitValuesMaterialized;
      return *this;
    }
  };

  /// \p F must be in SSA form with preds computed.  \p DT must be the
  /// dominator tree of \p F; the analysis inserts instructions but never
  /// changes the CFG, so \p DT stays valid throughout.
  ///
  /// Thread-safety: with MaterializeExitValues off, run() reads the IR but
  /// never writes it, so analyses of *distinct* functions may run
  /// concurrently (the batch driver relies on this).  Construction numbers
  /// the function's instructions (a write), so concurrent analyses of the
  /// same function are not supported.
  InductionAnalysis(ir::Function &F, const analysis::DominatorTree &DT,
                    const analysis::LoopInfo &LI, Options Opts);

  /// Processes every loop, inner to outer.
  void run();

  /// Classification of \p V relative to \p L.  Values defined outside \p L
  /// classify as invariants (symbols); values inside nested loops without a
  /// materialized exit value are unknown.
  const Classification &classify(const ir::Value *V, const analysis::Loop *L);

  /// Trip count computed for \p L (valid after run()).
  const TripCountInfo &tripCount(const analysis::Loop *L) const;

  const Stats &stats() const { return S; }

  ir::Function &function() const { return F; }
  const analysis::LoopInfo &loopInfo() const { return LI; }
  const analysis::DominatorTree &domTree() const { return DT; }

  /// Names affine symbols by their IR value name.
  SymbolNamer namer() const;

  /// Renders \p C with the paper's nested-tuple expansion: symbols that are
  /// themselves induction variables of enclosing loops print as tuples,
  /// e.g. "(L18, (L17, 0, 204), 2)".
  std::string strNested(const Classification &C, unsigned Depth = 4) {
    std::string Out;
    appendNested(Out, C, Depth);
    return Out;
  }
  /// Appends the strNested() rendering to \p Out.
  void appendNested(std::string &Out, const Classification &C,
                    unsigned Depth = 4);

  /// Classification of a value used by (but not belonging to) the SSA graph
  /// of \p L: constants and values defined outside \p L are invariants;
  /// values inside a nested loop are unknown (section 5.3).
  Classification classifyExternal(const ir::Value *V,
                                  const analysis::Loop *L) const;

private:
  /// \p SeqToNode is run()'s seq-indexed scratch for the loop's SSA graph.
  void processLoop(const analysis::Loop *L, std::span<unsigned> SeqToNode);
  void materializeExitValues(const analysis::Loop *L,
                             const TripCountInfo &TC);
  /// Builds IR computing \p V (integer affine) at the end of \p BB; returns
  /// null when a coefficient is not an integer.
  ir::Value *materializeAffine(const Affine &V, ir::BasicBlock *BB,
                               const std::string &Name);

  /// Table for \p L; loops are keyed by their dense index, a null loop (the
  /// "no enclosing loop" queries) by a dedicated slot.
  ClassTable &tableFor(const analysis::Loop *L);

  ir::Function &F;
  const analysis::DominatorTree &DT;
  const analysis::LoopInfo &LI;
  Options Opts;
  Stats S;

  /// Indexed by Loop::index(); sized once at construction.
  std::vector<ClassTable> ClassMap;
  ClassTable NullLoopClasses;
  std::vector<std::optional<TripCountInfo>> TripCounts;
  unsigned NextFamilyId = 1;
};

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_INDUCTIONANALYSIS_H
