//===- perfbench/src/Gen.h - Seeded benchmark inputs ------------*- C++ -*-===//
///
/// \file
/// Deterministic generators for the benchmark's loop-language inputs.  Every
/// generated function carries a unique name inside its text and draws its
/// constants from the seed, so no two units of one workload share a text
/// (and, since the function name is part of the canonical IR print, no two
/// share a cache digest either).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GEN_H
#define PERFBENCH_GEN_H

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// One benchmark input: a single function.
struct Unit {
  std::string Name;
  std::string Text;
  /// Shape family ("chain", "mixed", "nest", "deps", "fuzz", "corpus").
  std::string Kind;
  /// False when interpreting the unit is unbounded in practice (deep
  /// nests), so the interpreter oracle cannot be asked about it.
  bool Executable = true;
  /// One-shot inputs only: run `bivc` with `--deps`.
  bool Deps = false;
};

/// A loop of \p N derived linear statements ending in an array store.
/// \p ShapeSeed draws which statement feeds which; \p Seed the constants.
std::string genChain(const std::string &Name, unsigned N, uint64_t Seed,
                     uint64_t ShapeSeed);
/// One loop mixing every class of the paper, \p Groups times over.
std::string genMixed(const std::string &Name, unsigned Groups, uint64_t Seed);
/// A nest of \p Depth loops of \p Trip iterations each, with a multiloop
/// induction variable updated in the innermost body.
std::string genNest(const std::string &Name, unsigned Depth, unsigned Trip,
                    uint64_t Seed);
/// One loop with \p Pairs array reference pairs cycling through the
/// dependence-test situations; \p ShapeSeed draws where the cycle starts,
/// \p Seed the constants.
std::string genBattery(const std::string &Name, unsigned Pairs,
                       uint64_t Seed, uint64_t ShapeSeed);

/// The batch workload: \p Count generated units (chains, mixed loops,
/// nests of varied depth and trip, batteries and fuzz-grammar programs) in
/// a seeded order.
std::vector<Unit> batchCorpus(uint64_t Seed, unsigned Count);

/// The one-shot size ladders: chains, nests, mixed loops and batteries,
/// smallest first within each ladder.
std::vector<Unit> oneShotLadder(uint64_t Seed);

/// Every `tests/corpus/*.biv` under \p RepoRoot, sorted by name, with its
/// `.expect` text in \p Expect (same order).
std::vector<Unit> corpusFiles(const std::string &RepoRoot,
                              std::vector<std::string> &Expect);

/// Number of distinct texts among \p Units.
size_t distinctTexts(const std::vector<Unit> &Units);

} // namespace pb

#endif // PERFBENCH_GEN_H
