//===- perfbench/src/Layers.cpp - Entry-point replays and layer metrics ---===//

#include "Layers.h"
#include "Workloads.h"

#include "analysis/DominatorTree.h"
#include "analysis/LoopInfo.h"
#include "cache/AnalysisCache.h"
#include "dependence/DependenceAnalyzer.h"
#include "frontend/Lowering.h"
#include "fuzz/Oracle.h"
#include "ir/Printer.h"
#include "ivclass/InductionAnalysis.h"
#include "ivclass/Pipeline.h"
#include "ivclass/Report.h"
#include "ssa/SCCP.h"
#include "ssa/SSABuilder.h"
#include "ssa/SSAVerifier.h"
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>

using namespace biv;

namespace pb {

Replay replayUnit(const Unit &U, Path P, bool Deps, uint32_t Id, Tracer *T,
                  cache::AnalysisCache *Cache) {
  Replay R;
  ivclass::KindCounts Kinds;
  bool HaveKinds = false;
  std::unique_ptr<ir::Function> F;
  std::unique_ptr<analysis::DominatorTree> DT;
  std::unique_ptr<analysis::LoopInfo> LI;
  std::unique_ptr<ivclass::InductionAnalysis> IA;
  {
    Scope Root(T, "unit", Id);
    std::vector<std::string> Errors;
    {
      Scope S(T, "frontend.parse", Id);
      F = frontend::parseAndLower(U.Text, Errors);
    }
    if (!F)
      return R;
    ssa::SSAInfo Info;
    {
      Scope S(T, "ssa.build", Id);
      Info = ssa::buildSSA(*F);
    }
    {
      Scope S(T, "ssa.verify", Id);
      ssa::verifySSAOrDie(*F);
    }
    R.Instrs = F->instructionCount();

    // The served handler's cache calls are timed only as a whole (the
    // server probe's in-process hit); probeCache spans them one by one.
    uint64_t Digest = 0;
    if (P == Path::Served) {
      Digest = cache::unitDigest(ir::toString(*F), OneShotBits);
      const cache::CacheEntry *CE = Cache->lookup(Digest);
      if (!CE && Cache->refreshIfChanged())
        CE = Cache->lookup(Digest);
      if (CE) {
        R.OK = R.Hit = true;
        R.Output = CE->ReportText;
        return R;
      }
    }

    R.Analyzed = true;
    {
      Scope S(T, "ssa.sccp", Id);
      ssa::runSCCP(*F, /*SimplifyCFG=*/false);
    }
    {
      Scope S(T, "analysis.domtree", Id);
      DT = std::make_unique<analysis::DominatorTree>(*F);
    }
    R.Blocks = F->numBlocks();
    {
      Scope S(T, "analysis.loopinfo", Id);
      LI = std::make_unique<analysis::LoopInfo>(*F, *DT);
    }
    R.Loops = LI->loops().size();
    ivclass::InductionAnalysis::Options AO;
    AO.MaterializeExitValues = P != Path::Batch;
    {
      Scope S(T, "ivclass.classify", Id);
      IA = std::make_unique<ivclass::InductionAnalysis>(*F, *DT, *LI, AO);
      IA->run();
    }
    if (P != Path::OneShot) {
      Scope S(T, "ivclass.count", Id);
      Kinds = ivclass::countHeaderPhiKinds(*IA);
      HaveKinds = true;
    }
    {
      Scope S(T, "ivclass.report", Id);
      R.Output = ivclass::report(*IA, &Info, ivclass::ReportOptions());
    }
    if (Deps) {
      dependence::DependenceAnalyzer DA(*IA);
      std::vector<dependence::Dependence> Found;
      {
        Scope S(T, "dependence.analyze", Id);
        Found = DA.analyze();
      }
      {
        Scope S(T, "dependence.report", Id);
        R.Output += DA.report(Found);
      }
      R.Pairs = DA.stats().PairsTested;
      R.Independent = DA.stats().Independent;
    }
    if (P == Path::Served) {
      cache::CacheEntry E;
      E.ReportText = R.Output;
      E.Stats = IA->stats();
      E.Kinds = Kinds;
      E.Instructions = F->instructionCount();
      E.Loops = R.Loops;
      Cache->insert(Digest, std::move(E));
      if (Cache->pendingCount() >= FlushEvery) {
        std::string Err;
        if (!Cache->save(Err)) {
          std::fprintf(stderr, "perfbench: cache save failed: %s\n",
                       Err.c_str());
          return R;
        }
      }
    }
    R.OK = true;
  }
  // The one-shot path never counts kinds; the traced run still wants the
  // header-phi totals, so count outside every span.
  if (!HaveKinds && T)
    Kinds = ivclass::countHeaderPhiKinds(*IA);
  R.HeaderPhis = Kinds.classified() + Kinds.Unknown;
  R.Classified = Kinds.classified();
  return R;
}

namespace {

/// Parse through LoopInfo on a fresh copy, outside every span.
struct Fresh {
  std::unique_ptr<ir::Function> F;
  std::unique_ptr<analysis::DominatorTree> DT;
  std::unique_ptr<analysis::LoopInfo> LI;

  explicit Fresh(const std::string &Text) {
    std::vector<std::string> Errors;
    F = frontend::parseAndLower(Text, Errors);
    if (!F)
      return;
    ssa::buildSSA(*F);
    ssa::runSCCP(*F, /*SimplifyCFG=*/false);
    DT = std::make_unique<analysis::DominatorTree>(*F);
    LI = std::make_unique<analysis::LoopInfo>(*F, *DT);
  }
};

} // namespace

void materializeSplit(const Unit &U, uint32_t Id, Tracer &T) {
  for (bool On : {true, false}) {
    Fresh C(U.Text);
    if (!C.F)
      return;
    ivclass::InductionAnalysis::Options AO;
    AO.MaterializeExitValues = On;
    Scope S(&T, On ? "ivclass.materialize_on" : "ivclass.materialize_off",
            Id);
    ivclass::InductionAnalysis IA(*C.F, *C.DT, *C.LI, AO);
    IA.run();
  }
}

void Totals::add(const Replay &R) {
  ParsedInstrs += R.Instrs;
  if (R.Analyzed)
    AnalyzedInstrs += R.Instrs;
  Blocks += R.Blocks;
  Loops += R.Loops;
  HeaderPhis += R.HeaderPhis;
  Classified += R.Classified;
  Pairs += R.Pairs;
  Independent += R.Independent;
}

uint64_t probeCache(const std::vector<Unit> &Units, const std::string &Dir,
                    Tracer &T, Totals &Tot) {
  std::string Path = Dir + "/probe.cache";
  std::filesystem::remove(Path);
  cache::AnalysisCache Cache;
  std::string Err;
  if (!Cache.open(Path, Err)) {
    std::fprintf(stderr, "perfbench: probe cache: %s\n", Err.c_str());
    return 0;
  }
  std::vector<uint64_t> Digests;
  for (uint32_t I = 0; I < Units.size(); ++I) {
    std::vector<std::string> Errors;
    auto P = ivclass::parseSource(Units[I].Text, Errors);
    if (!P)
      continue;
    uint64_t Digest;
    {
      Scope S(&T, "cache.digest", I);
      std::string IR = ir::toString(*P->F);
      Digest = cache::unitDigest(IR, OneShotBits);
      Tot.IRBytes += IR.size();
    }
    Digests.push_back(Digest);
    {
      Scope S(&T, "cache.lookup_miss", I);
      if (!Cache.lookup(Digest))
        Cache.refreshIfChanged();
    }
    ++Tot.Lookups;
    ivclass::PipelineOptions PO;
    PO.VerifyEach = false;
    ivclass::analyzeParsed(*P, PO);
    cache::CacheEntry E;
    E.ReportText = ivclass::report(*P->IA, &P->Info);
    E.Stats = P->IA->stats();
    E.Instructions = P->F->instructionCount();
    E.Loops = P->LI->loops().size();
    {
      Scope S(&T, "cache.insert", I);
      Cache.insert(Digest, std::move(E));
    }
    if (Cache.pendingCount() >= FlushEvery) {
      Scope S(&T, "cache.save", I);
      if (!Cache.save(Err))
        std::fprintf(stderr, "perfbench: probe cache: %s\n", Err.c_str());
    }
  }
  {
    Scope S(&T, "cache.save", 0);
    if (!Cache.save(Err))
      std::fprintf(stderr, "perfbench: probe cache: %s\n", Err.c_str());
  }
  for (uint32_t I = 0; I < Digests.size(); ++I) {
    Scope S(&T, "cache.lookup_hit", I);
    Tot.Hits += Cache.lookup(Digests[I]) ? 1 : 0;
    ++Tot.Lookups;
  }
  std::error_code EC;
  uint64_t Bytes = std::filesystem::file_size(Path, EC);
  return EC ? 0 : Bytes;
}

void probeDeps(const std::vector<Unit> &Units, Tracer &T, Totals &Tot) {
  for (uint32_t I = 0; I < Units.size(); ++I) {
    std::vector<std::string> Errors;
    auto P = ivclass::analyzeSource(Units[I].Text, Errors);
    if (!P)
      continue;
    dependence::DependenceAnalyzer DA(*P->IA);
    {
      Scope S(&T, "dependence.analyze", I);
      DA.analyze();
    }
    Tot.Pairs += DA.stats().PairsTested;
    Tot.Independent += DA.stats().Independent;
  }
}

void emitLayerMetrics(const Tracer &T, const Totals &Tot, double ParallelEff,
                      uint64_t DriverUnits, uint64_t DriverFailed,
                      uint64_t CacheFileBytes, const ServerNumbers &S,
                      Outcome &O) {
  auto Names = T.byName();
  auto Self = [&](const char *N) { return double(Names[N].SelfNs); };
  auto Per = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };
  auto Mean = [&](const char *N, double Scale) {
    const Tracer::Agg &A = Names[N];
    return A.Count ? double(A.SelfNs) / double(A.Count) / Scale : 0.0;
  };

  O.metric("frontend.parse.ns_per_instr",
           Per(Self("frontend.parse"), Tot.ParsedInstrs), "ns/instr");
  O.metric("frontend.parse.busy_ms", Self("frontend.parse") / 1e6, "ms");
  O.metric("ssa.build.ns_per_instr", Per(Self("ssa.build"), Tot.ParsedInstrs),
           "ns/instr");
  O.metric("ssa.verify.ns_per_instr",
           Per(Self("ssa.verify"), Tot.ParsedInstrs), "ns/instr");
  O.metric("ssa.sccp.ns_per_instr", Per(Self("ssa.sccp"), Tot.AnalyzedInstrs),
           "ns/instr");
  O.metric("analysis.domtree.ns_per_block",
           Per(Self("analysis.domtree"), Tot.Blocks), "ns/block");
  O.metric("analysis.loopinfo.ns_per_loop",
           Per(Self("analysis.loopinfo"), Tot.Loops), "ns/loop");
  O.metric("ivclass.classify.ns_per_instr",
           Per(Self("ivclass.classify"), Tot.AnalyzedInstrs), "ns/instr");
  O.metric("ivclass.materialize.ns_per_instr",
           Per(Self("ivclass.materialize_on") - Self("ivclass.materialize_off"),
               Tot.MaterializeInstrs),
           "ns/instr");
  O.metric("ivclass.report.ns_per_instr",
           Per(Self("ivclass.report"), Tot.AnalyzedInstrs), "ns/instr");
  O.metric("ivclass.header_phis", double(Tot.HeaderPhis), "count");
  O.metric("ivclass.classified_share", Per(Tot.Classified, Tot.HeaderPhis),
           "ratio");
  O.metric("dependence.analyze.ns_per_pair",
           Per(Self("dependence.analyze"), Tot.Pairs), "ns/pair");
  O.metric("dependence.pairs", double(Tot.Pairs), "count");
  O.metric("dependence.independent_share", Per(Tot.Independent, Tot.Pairs),
           "ratio");
  O.metric("cache.digest.ns_per_byte", Per(Self("cache.digest"), Tot.IRBytes),
           "ns/byte");
  O.metric("cache.lookup_hit_us", Mean("cache.lookup_hit", 1e3), "us");
  O.metric("cache.lookup_miss_us", Mean("cache.lookup_miss", 1e3), "us");
  O.metric("cache.insert_us", Mean("cache.insert", 1e3), "us");
  O.metric("cache.save_ms", Mean("cache.save", 1e6), "ms");
  O.metric("cache.file_bytes", double(CacheFileBytes), "bytes");
  O.metric("cache.hit_share", Per(Tot.Hits, Tot.Lookups), "ratio");
  O.metric("driver.parallel_efficiency", ParallelEff, "ratio");
  O.metric("driver.units", double(DriverUnits), "count");
  O.metric("driver.failed", double(DriverFailed), "count");
  O.metric("server.idle_rtt_us", S.IdleRttUs, "us");
  O.metric("server.overhead_us", S.IdleRttUs - S.InProcessHitUs, "us");
  O.metric("server.loaded.wait_ms_p50", S.WaitMsP50, "ms");
  O.metric("protocol.codec.ns_per_byte", S.CodecNsPerByte, "ns/byte");
  O.metric("server.overloaded", double(S.Overloaded), "count");
  O.metric("server.deadline_exceeded", double(S.Deadline), "count");
  O.metric("server.transport_errors", double(S.TransportErrors), "count");
  O.metric("loadgen.lag_ms_p99", S.LagMsP99, "ms");

  // Layer times cover the entry point's own path (spans under `unit`
  // roots).  Every gated entry point runs the first PathLayers layers; the
  // rest run there on some workloads or only in probes, so they are
  // printed but not reported as metrics.
  std::printf("per-layer time on the entry point's path (self = span minus "
              "child spans; wait = self wall - self thread CPU):\n");
  std::printf("  %-12s %8s %12s %12s %12s\n", "layer", "spans", "self_ms",
              "cpu_ms", "wait_ms");
  auto Layers = T.byLayer();
  const std::string LayerNames[] = {"frontend",   "ssa",   "analysis",
                                    "ivclass",    "dependence", "cache",
                                    "driver",     "server"};
  constexpr size_t PathLayers = 4;
  for (size_t I = 0; I < std::size(LayerNames); ++I) {
    const std::string &L = LayerNames[I];
    const Tracer::Agg &A = Layers[L];
    double SelfMs = double(A.SelfNs) / 1e6, CpuMs = double(A.CpuNs) / 1e6;
    std::printf("  %-12s %8llu %12.3f %12.3f %12.3f\n", L.c_str(),
                (unsigned long long)A.Count, SelfMs, CpuMs, SelfMs - CpuMs);
    if (I >= PathLayers)
      continue;
    O.metric(L + ".self_ms", SelfMs, "ms");
    O.metric(L + ".cpu_ms", CpuMs, "ms");
    O.metric(L + ".wait_ms", SelfMs - CpuMs, "ms");
  }
}

std::vector<Unit> sampleUnits(const std::vector<Unit> &Units, size_t N,
                              uint64_t Seed) {
  std::vector<size_t> Idx;
  for (size_t I = 0; I < Units.size(); ++I)
    if (Units[I].Executable)
      Idx.push_back(I);
  // Seeded Fisher-Yates prefix, then input order.
  uint64_t S = Seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull;
  size_t Take = std::min(N, Idx.size());
  for (size_t I = 0; I < Take; ++I) {
    S = S * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(Idx[I], Idx[I + size_t((S >> 33) % (Idx.size() - I))]);
  }
  Idx.resize(Take);
  std::sort(Idx.begin(), Idx.end());
  std::vector<Unit> Out;
  for (size_t I : Idx)
    Out.push_back(Units[I]);
  return Out;
}

void oracleCheck(const std::vector<Unit> &Sample, Outcome &O) {
  uint64_t Mismatches = 0;
  for (const Unit &U : Sample) {
    fuzz::OracleResult R = fuzz::checkProgram(U.Text);
    Mismatches += R.Mismatches.size();
    std::string Note = "oracle: " + U.Name;
    if (!R.ParseOK)
      Note += ": does not parse";
    else if (!R.Mismatches.empty())
      Note += ": " + R.Mismatches.front().str();
    O.op(R.clean(), Note);
  }
  row("check.oracle_programs", double(Sample.size()), "count",
      "mismatches=" + std::to_string(Mismatches));
}

void reconcile(const Tracer &T, double EndToEndNs, double UntracedNs,
               double TracedNs, Outcome &O) {
  Tracer::Agg Unit = T.byName()["unit"];
  double LayerNs = double(Unit.WallNs - Unit.SelfNs);
  double Accounted = TracedNs > 0 ? LayerNs * UntracedNs / TracedNs : 0;
  double Residual = EndToEndNs > 0 ? (EndToEndNs - Accounted) / EndToEndNs
                                   : 1.0;
  bool OK = std::fabs(Residual) <= ResidualBound;
  row("trace.overhead_ms", (TracedNs - UntracedNs) / 1e6, "ms",
      "traced " + fmt(TracedNs / 1e6) + " - untraced " +
          fmt(UntracedNs / 1e6));
  row("trace.accounted", Accounted / 1e6, "ms",
      "layer self times over " + std::to_string(Unit.Count) + " units (" +
          fmt(LayerNs / 1e6) + " ms traced) x untraced / traced");
  row("trace.end_to_end", EndToEndNs / 1e6, "ms");
  row("trace.residual_share", Residual, "ratio",
      std::string("stated bound +-") + fmt(ResidualBound, 2) +
          (OK ? ", reconciled" : ", NOT reconciled"));
  O.metric("trace.residual_share", Residual, "ratio");
  O.metric("trace.overhead_share",
           UntracedNs > 0 ? (TracedNs - UntracedNs) / UntracedNs : 0.0,
           "ratio");
  O.op(OK, "trace: layer self times do not reconcile (residual " +
               fmt(Residual) + ")");
}

} // namespace pb
