//===- tests/arena_test.cpp - Arena, interner, and determinism tests ----------===//
//
// The memory architecture of DESIGN.md §11: chunked bump allocation, arena
// vectors, string interning, symbol stability across units, and the
// end-to-end guarantee the arena switch must not disturb -- batch output and
// cache bytes identical at any -jN.
//
//===----------------------------------------------------------------------===//

#include "WorkloadGen.h"
#include "cache/AnalysisCache.h"
#include "driver/BatchAnalyzer.h"
#include "frontend/Lowering.h"
#include "support/Arena.h"
#include "support/StringInterner.h"
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace biv;
using support::Arena;
using support::ArenaVector;
using support::StringInterner;
using support::Symbol;

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(ArenaTest, ChunkGrowth) {
  Arena A;
  EXPECT_EQ(A.numChunks(), 0u);
  EXPECT_EQ(A.bytesAllocated(), 0u);

  // Fill well past the first chunk; chunks double, so the count grows
  // logarithmically while reserved bytes always cover allocated bytes.
  size_t Total = 0;
  while (Total < Arena::MinChunkBytes * 8) {
    A.allocate(256, 8);
    Total += 256;
  }
  EXPECT_EQ(A.bytesAllocated(), Total);
  EXPECT_GE(A.bytesReserved(), A.bytesAllocated());
  EXPECT_GE(A.numChunks(), 2u);
  EXPECT_LE(A.numChunks(), 8u);
}

TEST(ArenaTest, OversizedAllocationGetsItsOwnChunk) {
  Arena A;
  // Larger than the max chunk size: the arena must still satisfy it.
  const size_t Big = Arena::MaxChunkBytes + 4096;
  char *P = static_cast<char *>(A.allocate(Big, 16));
  ASSERT_NE(P, nullptr);
  // The storage must actually be usable end to end.
  P[0] = 1;
  P[Big - 1] = 2;
  EXPECT_GE(A.bytesReserved(), Big);
}

TEST(ArenaTest, Alignment) {
  Arena A;
  for (size_t Align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    // Skew the bump pointer first so alignment is actually exercised.
    A.allocate(1, 1);
    void *P = A.allocate(Align * 3, Align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u)
        << "misaligned for align " << Align;
  }
}

TEST(ArenaTest, ResetReleasesAndReuses) {
  Arena A;
  for (int I = 0; I < 100; ++I)
    A.allocate(512, 8);
  EXPECT_GT(A.bytesAllocated(), 0u);
  EXPECT_GT(A.numChunks(), 0u);

  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  EXPECT_EQ(A.bytesReserved(), 0u);
  EXPECT_EQ(A.numChunks(), 0u);

  // The arena is fully usable again after batch free.
  int *X = A.create<int>(42);
  EXPECT_EQ(*X, 42);
  EXPECT_GT(A.bytesAllocated(), 0u);
}

TEST(ArenaTest, ArenaVectorGrowthKeepsContents) {
  Arena A;
  ArenaVector<uint32_t> V;
  for (uint32_t I = 0; I < 1000; ++I)
    V.push_back(A, I * 3);
  ASSERT_EQ(V.size(), 1000u);
  for (uint32_t I = 0; I < 1000; ++I)
    EXPECT_EQ(V[I], I * 3);

  V.insert(A, 0, 7u);
  EXPECT_EQ(V.front(), 7u);
  EXPECT_EQ(V[1], 0u);
  V.erase(0);
  EXPECT_EQ(V.front(), 0u);
  EXPECT_EQ(V.size(), 1000u);
}

TEST(ArenaTest, RewindFreesSinceTheMarkAndKeepsChunksForReuse) {
  Arena A;
  int *Before = A.create<int>(1);
  const Arena::Mark M = A.mark();
  const size_t AllocatedAtMark = A.bytesAllocated();
  // Spill over several chunks past the mark.
  for (int I = 0; I < 64; ++I)
    A.allocate(1024, 8);
  const size_t Chunks = A.numChunks();
  const size_t Reserved = A.bytesReserved();
  ASSERT_GT(Chunks, 1u);

  A.rewind(M);
  EXPECT_EQ(A.bytesAllocated(), AllocatedAtMark);
  EXPECT_EQ(*Before, 1) << "rewind freed memory from before the mark";
  // The high-water mark survives the rewind until it is reset.
  EXPECT_EQ(A.peakBytesAllocated(), AllocatedAtMark + 64 * 1024);
  A.resetPeak();
  EXPECT_EQ(A.peakBytesAllocated(), AllocatedAtMark);
  // The chunks stay as spares: the same demand again takes no new chunk.
  EXPECT_EQ(A.numChunks(), Chunks);
  for (int I = 0; I < 64; ++I)
    A.allocate(1024, 8);
  EXPECT_EQ(A.numChunks(), Chunks);
  EXPECT_EQ(A.bytesReserved(), Reserved);

  // Rewinding to a mark taken on an empty arena frees everything; trim()
  // then hands spares back to the heap down to the cap.
  Arena B;
  const Arena::Mark Empty = B.mark();
  for (int I = 0; I < 64; ++I)
    B.allocate(4096, 8);
  B.rewind(Empty);
  EXPECT_EQ(B.bytesAllocated(), 0u);
  const size_t Cap = Arena::MinChunkBytes * 4;
  B.trim(Cap);
  EXPECT_LE(B.bytesReserved(), Cap);
  B.trim(0);
  EXPECT_EQ(B.bytesReserved(), 0u);
  EXPECT_EQ(B.numChunks(), 0u);
  // Still usable after giving everything back.
  EXPECT_EQ(*B.create<int>(7), 7);
}

TEST(ArenaTest, ScratchScopesNestAndCapWhatAThreadKeeps) {
  // A fresh thread starts with an empty scratch arena of its own.
  std::thread T([] {
    support::Arena &S = support::scratchArena();
    EXPECT_EQ(S.bytesReserved(), 0u);
    {
      support::ScratchScope Outer;
      ArenaVector<uint32_t> Kept;
      Kept.resize(Outer.arena(), 100, 5u);
      {
        support::ScratchScope Inner;
        // Far more than the thread may keep once the scopes close.
        for (int I = 0; I < 64; ++I)
          Inner.arena().allocate(64 * 1024, 8);
      }
      // The inner rewind left the outer scope's data alone.
      for (uint32_t V : Kept)
        EXPECT_EQ(V, 5u);
      EXPECT_GT(S.bytesAllocated(), 0u);
    }
    EXPECT_EQ(S.bytesAllocated(), 0u);
    EXPECT_LE(S.bytesReserved(), support::ScratchKeepBytes);
  });
  T.join();
}

//===----------------------------------------------------------------------===//
// StringInterner
//===----------------------------------------------------------------------===//

TEST(InternerTest, DedupeAndStability) {
  Arena A;
  StringInterner SI(A);
  Symbol S1 = SI.intern("alpha");
  Symbol S2 = SI.intern("beta");
  Symbol S3 = SI.intern("alpha");
  EXPECT_EQ(S1, S3);
  EXPECT_NE(S1, S2);
  EXPECT_EQ(SI.str(S1), "alpha");
  EXPECT_EQ(SI.str(S2), "beta");
  EXPECT_EQ(SI.size(), 2u);

  // The view is arena-backed, not a view of the caller's buffer.
  std::string Ephemeral = "gamma";
  std::string_view View = SI.internView(Ephemeral);
  Ephemeral.assign("XXXXX");
  EXPECT_EQ(View, "gamma");
}

TEST(InternerTest, CollisionAndRehash) {
  Arena A;
  StringInterner SI(A);
  // Far more symbols than the initial table (64 slots): every insertion
  // beyond the load factor forces probing and several rehashes.  All
  // symbols must stay dense, distinct, and resolvable afterwards.
  std::vector<Symbol> Syms;
  for (int I = 0; I < 5000; ++I) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "sym_%d", I);
    Syms.push_back(SI.intern(Buf));
  }
  EXPECT_EQ(SI.size(), 5000u);
  for (int I = 0; I < 5000; ++I) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "sym_%d", I);
    EXPECT_EQ(Syms[I], Symbol(I)) << "symbols must be dense";
    EXPECT_EQ(SI.str(Syms[I]), Buf);
    EXPECT_EQ(SI.lookup(Buf), Syms[I]);
  }
  EXPECT_EQ(SI.lookup("never_interned"), support::NoSymbol);
}

TEST(InternerTest, SymbolStabilityAcrossUnits) {
  // Units own disjoint interners: dropping one unit must not disturb
  // another's symbols or spellings (the batch driver frees units in
  // arbitrary order relative to their siblings).
  const std::string Src =
      "func f(n) {\n  s = 0;\n  for L1: i = 1 to n { s = s + i; }\n"
      "  return s;\n}\n";
  std::unique_ptr<ir::Function> F1 = frontend::parseAndLowerOrDie(Src);
  std::unique_ptr<ir::Function> F2 = frontend::parseAndLowerOrDie(Src);

  std::string_view Name1 = F1->vars().front()->name();
  F2.reset(); // batch-free the sibling unit
  EXPECT_EQ(Name1, F1->vars().front()->name());
  EXPECT_EQ(Name1, "i"); // scalars are registered sorted by spelling
}

//===----------------------------------------------------------------------===//
// End-to-end determinism across the arena switch
//===----------------------------------------------------------------------===//

namespace {

std::vector<driver::SourceInput> corpusSources() {
  std::vector<bench::CorpusUnit> Corpus = bench::genCorpus(40, /*Seed=*/7);
  std::vector<driver::SourceInput> Sources;
  for (const bench::CorpusUnit &U : Corpus)
    Sources.push_back({U.Name, U.Text});
  return Sources;
}

std::string fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

} // namespace

TEST(ArenaDeterminismTest, BatchOutputIdenticalAcrossJobCounts) {
  std::vector<driver::SourceInput> Sources = corpusSources();
  driver::BatchOptions Serial;
  Serial.Jobs = 1;
  driver::BatchOptions Parallel = Serial;
  Parallel.Jobs = 8;

  driver::BatchResult RS = driver::analyzeBatch(Sources, Serial);
  driver::BatchResult RP = driver::analyzeBatch(Sources, Parallel);
  EXPECT_EQ(RS.Failed, 0u);
  EXPECT_EQ(RP.Failed, 0u);
  EXPECT_EQ(RS.renderText(), RP.renderText());
}

TEST(ArenaDeterminismTest, CacheBytesIdenticalAcrossJobCounts) {
  std::vector<driver::SourceInput> Sources = corpusSources();
  const std::string P1 = testing::TempDir() + "arena_cache_j1.bin";
  const std::string P8 = testing::TempDir() + "arena_cache_j8.bin";
  std::remove(P1.c_str());
  std::remove(P8.c_str());

  std::string Error;
  cache::AnalysisCache C1, C8;
  ASSERT_TRUE(C1.open(P1, Error)) << Error;
  ASSERT_TRUE(C8.open(P8, Error)) << Error;

  driver::BatchOptions B1;
  B1.Jobs = 1;
  B1.Cache = &C1;
  driver::BatchOptions B8;
  B8.Jobs = 8;
  B8.Cache = &C8;

  driver::BatchResult R1 = driver::analyzeBatch(Sources, B1);
  driver::BatchResult R8 = driver::analyzeBatch(Sources, B8);
  EXPECT_EQ(R1.Failed, 0u);
  EXPECT_EQ(R8.Failed, 0u);
  ASSERT_TRUE(C1.save(Error)) << Error;
  ASSERT_TRUE(C8.save(Error)) << Error;

  // The digests are content-addressed over canonical IR text, and entries
  // are committed in input order after the parallel section, so the cache
  // files must match byte for byte regardless of worker count.
  const std::string Bytes1 = fileBytes(P1);
  const std::string Bytes8 = fileBytes(P8);
  ASSERT_FALSE(Bytes1.empty());
  EXPECT_EQ(Bytes1, Bytes8);
  // Content-addressed: duplicate corpus programs share one entry.
  EXPECT_GT(C1.entryCount(), 0u);
  EXPECT_LE(C1.entryCount(), Sources.size());

  std::remove(P1.c_str());
  std::remove(P8.c_str());
}
