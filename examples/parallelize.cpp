//===- examples/parallelize.cpp - Dependence-driven parallelization advisor ---===//
//
// The paper's motivating use case: "the driving force for classifying the
// variables in loops ... is to improve the generality of dependence
// testing ... allowing more aggressive optimization."  This example runs
// the dependence analyzer over several loops and reports, per loop, whether
// it can run in parallel (no loop-carried dependence) and why not when it
// cannot.
//
//   $ ./parallelize
//
//===----------------------------------------------------------------------===//

#include "dependence/DependenceAnalyzer.h"
#include "ivclass/Pipeline.h"
#include <cstdio>

using namespace biv;
using namespace biv::dependence;

namespace {

void advise(const char *Name, const char *Source) {
  ivclass::AnalyzedProgram P = ivclass::analyzeSourceOrDie(Source);
  DependenceAnalyzer DA(*P.IA);
  std::vector<Dependence> Deps = DA.analyze();

  std::printf("--- %s ---\n", Name);
  for (const auto &L : P.LI->loops()) {
    // A dependence is *carried* by L when it can hold with '=' in every
    // loop enclosing L and '<' or '>' in L itself; a loop with no carried
    // dependence can run its iterations in parallel.
    bool Parallel = true;
    const Dependence *Blocker = nullptr;
    for (const Dependence &D : Deps) {
      if (D.Result.O == DependenceResult::Outcome::Independent)
        continue;
      if (!L->contains(D.Src->parent()) || !L->contains(D.Dst->parent()))
        continue;
      bool OuterCanBeEq = true;
      for (const LoopDirection &LD : D.Result.Directions) {
        if (LD.L == L)
          break;
        OuterCanBeEq &= (LD.Dirs & DirEQ) != 0;
      }
      if (OuterCanBeEq && (D.Result.dirsFor(L) & (DirLT | DirGT))) {
        Parallel = false;
        Blocker = &D;
        break;
      }
    }
    std::printf("  loop %-4s: %s", std::string(L->name()).c_str(),
                Parallel ? "PARALLELIZABLE" : "serial");
    if (!Parallel && Blocker) {
      std::printf("  (carried %s dep on %s, %s)",
                  depKindName(Blocker->Kind),
                  std::string(Blocker->Src->array()->name()).c_str(),
                  Blocker->Result.Note.c_str());
      if (Blocker->Result.ValidAfterIterations)
        std::printf(" [peel %u iteration(s) first]",
                    Blocker->Result.ValidAfterIterations);
    }
    std::printf("\n");
  }
  std::printf("%s\n", DA.report(Deps).c_str());
}

} // namespace

int main() {
  // 1. Independent columns: classic parallel loop.
  advise("independent updates",
         R"(func f(n) {
              for L1: i = 1 to n {
                A[2*i] = A[2*i + 1] + 1;
              }
              return 0;
            })");

  // 2. A recurrence: serial (distance-1 flow dependence).
  advise("linear recurrence",
         R"(func g(n) {
              for L1: i = 1 to 100 {
                A[i] = A[i - 1] + 1;
              }
              return 0;
            })");

  // 3. The paper's L9 wrap-around: once iml settles to i-1 this is a
  //    distance-1 recurrence; the advisor shows the dependence together
  //    with the "holds after 1 iteration" peel hint (section 6).
  advise("wrap-around (settles to a recurrence)",
         R"(func l9(n) {
              iml = n;
              for L9: i = 1 to n {
                A[i] = A[iml] + 1;
                iml = i;
              }
              return 0;
            })");

  // 4. Normalization-invariance (section 6.1): triangular loop nest; the
  //    inner loop is parallel, the outer carries the dependence.
  advise("triangular nest",
         R"(func l23(n) {
              for L23: i = 1 to 50 {
                for L24: j = i + 1 to 50 {
                  A[i, j] = A[i - 1, j] + 1;
                }
              }
              return 0;
            })");
  return 0;
}
