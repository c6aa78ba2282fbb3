//===- tests/alloc_ceiling_test.cpp - Front-half heap allocation ceiling ------===//
//
// Audits the front half of the pipeline (parse + lower + SSA + SCCP + DCE)
// for general-heap allocations the arena layer was supposed to absorb
// (DESIGN.md §11).  Every `operator new` in this process is counted, so the
// test is its own binary.
//
//===----------------------------------------------------------------------===//

#include "WorkloadGen.h"
#include "frontend/Lowering.h"
#include "ssa/DeadCode.h"
#include "ssa/SCCP.h"
#include "ssa/SSABuilder.h"
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <new>

using namespace biv;

static std::atomic<unsigned long long> GHeapAllocs{0};

void *operator new(std::size_t Sz) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Sz) { return operator new(Sz); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

/// Ceiling on general-heap allocations per unit on the front-half hot path.
/// The seed spent 1781 heap allocations per corpus unit here; the
/// arena/interner/dense-table rewrite targets a >=10x reduction, so the
/// ceiling is pinned at a tenth of that.  The same number is documented in
/// DESIGN.md §11 and cross-checked by tools/check_docs.sh; raise both
/// together, deliberately.
constexpr unsigned long long MaxHeapAllocsPerUnit = 178;

TEST(AllocCeilingTest, FrontHalfStaysUnderCeiling) {
  std::vector<bench::CorpusUnit> Corpus = bench::genCorpus(1000, /*Seed=*/7);

  unsigned long long Before = GHeapAllocs.load(std::memory_order_relaxed);
  for (const bench::CorpusUnit &U : Corpus) {
    std::unique_ptr<ir::Function> F = frontend::parseAndLowerOrDie(U.Text);
    ssa::buildSSA(*F);
    ssa::runSCCP(*F, /*SimplifyCFG=*/true);
    ssa::removeDeadCode(*F);
  }
  unsigned long long Delta =
      GHeapAllocs.load(std::memory_order_relaxed) - Before;

  double PerUnit = double(Delta) / double(Corpus.size());
  std::printf("front-half heap allocations per unit: %.1f (ceiling %llu)\n",
              PerUnit, MaxHeapAllocsPerUnit);
  EXPECT_LE(PerUnit, double(MaxHeapAllocsPerUnit))
      << "front-half heap allocations per unit exceed the documented "
         "ceiling (DESIGN.md §11)";
  // A zero count would mean the override is not linked in and the ceiling
  // checks nothing.
  EXPECT_GT(Delta, 0u);
}

} // namespace
