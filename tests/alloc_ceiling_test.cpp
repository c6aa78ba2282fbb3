//===- tests/alloc_ceiling_test.cpp - Heap allocation ceilings ---------------===//
//
// Audits the front half of the pipeline (parse + lower + SSA + SCCP + DCE)
// for general-heap allocations the arena layer was supposed to absorb
// (DESIGN.md §11), caps the back half's (analysis + report) allocations per
// IR instruction on the batch path, and checks that the analysis half's
// heap traffic grows linearly with the program on deep loop nests
// (DESIGN.md §6).  Every
// `operator new` in this process is counted and its requested bytes summed,
// so the test is its own binary.
//
//===----------------------------------------------------------------------===//

#include "WorkloadGen.h"
#include "frontend/Lowering.h"
#include "ivclass/Pipeline.h"
#include "ivclass/Report.h"
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
static std::atomic<unsigned long long> GHeapBytes{0};

void *operator new(std::size_t Sz) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  GHeapBytes.fetch_add(Sz, std::memory_order_relaxed);
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

/// Ceiling on heap allocations per IR instruction in the back half of a
/// batch unit: analyzeParsed plus the report, with the `bivc --batch`
/// defaults (exit-value materialization off, the default report).  The
/// code before the int64 rational fast path, the pooled class table, the
/// lazily built printer, the inline closed-form coefficients and the
/// node-indexed evaluation scratch spent 10.69 allocations per instruction
/// here; with them it spends 3.42, and the ceiling is that plus about 10%.
/// The same number is documented in DESIGN.md §11 and cross-checked by
/// tools/check_docs.sh; change both together, deliberately.
constexpr double MaxAnalysisAllocsPerInstr = 3.76;

TEST(AllocCeilingTest, BackHalfAllocsPerInstrStayUnderCeiling) {
  std::vector<bench::CorpusUnit> Corpus = bench::genCorpus(1000, /*Seed=*/7);
  ivclass::PipelineOptions PO;
  PO.VerifyEach = false;
  PO.Analysis.MaterializeExitValues = false;
  unsigned long long Allocs = 0, Instrs = 0;
  for (const bench::CorpusUnit &U : Corpus) {
    std::vector<std::string> Errors;
    std::optional<ivclass::AnalyzedProgram> P =
        ivclass::parseSource(U.Text, Errors);
    ASSERT_TRUE(P.has_value()) << U.Name;
    unsigned long long Before = GHeapAllocs.load(std::memory_order_relaxed);
    ivclass::analyzeParsed(*P, PO);
    std::string Report = ivclass::report(*P->IA, &P->Info);
    Allocs += GHeapAllocs.load(std::memory_order_relaxed) - Before;
    Instrs += P->F->instructionCount();
    ASSERT_FALSE(Report.empty()) << U.Name;
  }
  double PerInstr = double(Allocs) / double(Instrs);
  std::printf("back-half heap allocations per instruction: %.2f (ceiling "
              "%.2f)\n",
              PerInstr, MaxAnalysisAllocsPerInstr);
  EXPECT_LE(PerInstr, MaxAnalysisAllocsPerInstr)
      << "analysis + report heap allocations per instruction exceed the "
         "documented ceiling (DESIGN.md §11)";
  EXPECT_GT(Allocs, 0u);
}

/// Heap bytes requested by the analysis half (SCCP, dominators, loops, and
/// the classifier with exit-value materialization, as one-shot bivc and the
/// daemon run it) per IR instruction of the analyzed function.
double analysisBytesPerInstr(const std::string &Source) {
  std::vector<std::string> Errors;
  std::optional<ivclass::AnalyzedProgram> P =
      ivclass::parseSource(Source, Errors);
  EXPECT_TRUE(P.has_value());
  if (!P)
    return 0;
  ivclass::PipelineOptions PO;
  PO.VerifyEach = false;
  PO.Analysis.MaterializeExitValues = true;
  unsigned long long Before = GHeapBytes.load(std::memory_order_relaxed);
  ivclass::analyzeParsed(*P, PO);
  unsigned long long Delta =
      GHeapBytes.load(std::memory_order_relaxed) - Before;
  return double(Delta) / double(P->F->instructionCount());
}

/// Per-instruction analysis bytes may grow at most this much from a 50-deep
/// to a 200-deep nest.  Per-loop state sized to the whole function grows
/// as loops x function size and reads about 2.05 here; state sized to each
/// loop reads about 1.0, like the single-loop chains below.
constexpr double MaxNestBytesGrowth = 1.3;

TEST(AllocCeilingTest, AnalysisBytesPerInstrFlatOnDeepNests) {
  double Nest50 = analysisBytesPerInstr(bench::genNest(50));
  double Nest200 = analysisBytesPerInstr(bench::genNest(200));
  double Chain1k = analysisBytesPerInstr(bench::genLinearChain(1024));
  double Chain4k = analysisBytesPerInstr(bench::genLinearChain(4096));
  std::printf("analysis heap bytes per instr: nest 50 %.0f, nest 200 %.0f "
              "(x%.2f); chain 1024 %.0f, chain 4096 %.0f (x%.2f)\n",
              Nest50, Nest200, Nest200 / Nest50, Chain1k, Chain4k,
              Chain4k / Chain1k);
  ASSERT_GT(Nest50, 0.0);
  ASSERT_GT(Chain1k, 0.0);
  // The single-loop control: one loop, so nothing can scale with loops.
  EXPECT_LE(Chain4k / Chain1k, MaxNestBytesGrowth);
  EXPECT_LE(Nest200 / Nest50, MaxNestBytesGrowth)
      << "analysis memory grows faster than the SSA graph on deep nests "
         "(per-loop state sized to the function?)";
}

} // namespace
