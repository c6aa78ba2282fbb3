//===- perfbench/src/Batch.cpp - The batch_corpus workload ----------------===//
///
/// driver::analyzeBatch with the `bivc --batch` defaults (classification
/// on, materialization and cache off) and nproc jobs, one batch at a time
/// (closed loop), over a seeded corpus of distinct functions plus every
/// tests/corpus/*.biv.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "driver/BatchAnalyzer.h"
#include <algorithm>
#include <cstdio>
#include <stdexcept>

using namespace biv;

namespace pb {
namespace {

constexpr unsigned CorpusUnits = 3000;
constexpr size_t OracleSample = 24;
constexpr size_t ProbeSample = 200;

struct BatchSetup {
  std::vector<Unit> Units;
  std::vector<std::string> Expect; ///< .expect per tests/corpus unit
  size_t CorpusBegin = 0;          ///< first tests/corpus unit in Units
  std::vector<driver::SourceInput> Inputs;
  std::string Reference; ///< -j1 merged report
  std::vector<std::string> UnitReports;
  std::vector<uint64_t> UnitInstrs;
  uint64_t Instrs = 0;
};

driver::BatchOptions batchDefaults(unsigned Jobs) {
  driver::BatchOptions BO; // the `bivc --batch` defaults
  BO.Jobs = Jobs;
  return BO;
}

void setUp(const Config &C, BatchSetup &S, Outcome &O) {
  S.Units = batchCorpus(C.Seed, CorpusUnits);
  S.CorpusBegin = S.Units.size();
  std::vector<Unit> Corpus = corpusFiles(C.Root, S.Expect);
  if (Corpus.empty())
    throw std::runtime_error("no tests/corpus/*.biv under " + C.Root);
  S.Units.insert(S.Units.end(), Corpus.begin(), Corpus.end());
  S.Inputs.clear();
  for (const Unit &U : S.Units)
    S.Inputs.push_back({U.Name, U.Text});
  driver::BatchResult R = driver::analyzeBatch(S.Inputs, batchDefaults(1));
  S.Reference = R.renderText();
  S.Instrs = R.TotalInstructions;
  S.UnitReports.clear();
  S.UnitInstrs.clear();
  for (const driver::UnitResult &U : R.Units) {
    S.UnitReports.push_back(U.ReportText);
    S.UnitInstrs.push_back(U.Instructions);
  }
  O.ops(R.Units.size(), R.Failed, "batch: -j1 reference pass had failures");
}

/// tests/corpus reports must equal their goldens (rendered the way the
/// corpus test renders them: all values, summarization on).
void checkGoldens(const BatchSetup &S, Outcome &O) {
  driver::BatchOptions BO = batchDefaults(1);
  BO.Report.AllValues = true;
  BO.Summarize = true;
  for (size_t I = S.CorpusBegin; I < S.Units.size(); ++I) {
    driver::BatchResult R =
        driver::analyzeBatch({{S.Units[I].Name, S.Units[I].Text}}, BO);
    std::string Out;
    for (const driver::UnitResult &U : R.Units) {
      for (const std::string &E : U.Errors)
        Out += "error: " + E + "\n";
      Out += U.ReportText;
    }
    O.op(Out == S.Expect[I - S.CorpusBegin],
         "batch: report differs from " + S.Units[I].Name + ".expect");
  }
  row("check.corpus_goldens", double(S.Units.size() - S.CorpusBegin),
      "files");
}

void batchTraced(const Config &C, BatchSetup &S, Outcome &O) {
  Tracer T;
  Totals Tot;
  uint64_t Bad = 0;
  auto ReplayPass = [&](Tracer *Tr) {
    uint64_t A = wallNs();
    for (uint32_t I = 0; I < S.Units.size(); ++I) {
      Replay R = replayUnit(S.Units[I], Path::Batch, false, I, Tr);
      if (Tr)
        Tot.add(R);
      Bad += (!R.OK || R.Output != S.UnitReports[I]) ? 1 : 0;
    }
    return double(wallNs() - A);
  };
  // After an untraced warm-up replay, the end-to-end -j1 pass and the
  // untraced replay alternate, so the machine's drift hits both alike;
  // then one traced replay.
  ReplayPass(nullptr);
  std::vector<double> EndToEnd, Untraced;
  for (int Round = 0; Round < ReconcileRounds; ++Round) {
    uint64_t A = wallNs();
    driver::BatchResult R = driver::analyzeBatch(S.Inputs, batchDefaults(1));
    EndToEnd.push_back(double(wallNs() - A));
    O.op(R.renderText() == S.Reference, "batch: -j1 report differs");
    Untraced.push_back(ReplayPass(nullptr));
  }
  double Traced = ReplayPass(&T);
  O.ops((ReconcileRounds + 2) * S.Units.size(), Bad,
        "batch: replay differs from -j1 report");

  // Parallel efficiency: the traced serial busy time, with the tracing
  // overhead taken out as in the reconciliation, over the untraced -jN wall
  // times the jobs.
  const double UntracedNs =
      *std::min_element(Untraced.begin(), Untraced.end());
  const double BusyNs =
      double(T.byName()["unit"].WallNs) * UntracedNs / Traced;
  std::vector<double> JnWall;
  DriverNumbers DN;
  for (int Rep = 0; Rep < 3; ++Rep) {
    uint64_t A = wallNs();
    driver::BatchResult R;
    {
      Scope Sp(&T, "driver.batch", 0);
      R = driver::analyzeBatch(S.Inputs, batchDefaults(C.Jobs));
    }
    JnWall.push_back(double(wallNs() - A));
    O.op(R.renderText() == S.Reference, "batch: -jN report differs");
    O.ops(R.Units.size(), R.Failed, "batch: units failed at -jN");
    DN.Failed += R.Failed;
  }
  DN.Efficiency = BusyNs / (median(JnWall) * double(C.Jobs));
  row("driver.batch_wall", median(JnWall) / 1e6, "ms",
      "-j" + std::to_string(C.Jobs) + ", median of " +
          std::to_string(JnWall.size()) + "; serial busy " +
          fmt(BusyNs / 1e6) + " ms");
  DN.Units = S.Units.size();

  std::vector<Unit> Sample = sampleUnits(S.Units, ProbeSample, C.Seed);
  for (uint32_t I = 0; I < Sample.size(); ++I) {
    materializeSplit(Sample[I], I, T);
    Tot.MaterializeInstrs +=
        replayUnit(Sample[I], Path::Batch, false, 0, nullptr).Instrs;
  }
  probeDeps(Sample, T, Tot);
  uint64_t CacheBytes = probeCache(Sample, C.WorkDir, T, Tot);
  std::vector<Unit> Small = sampleUnits(S.Units, 50, C.Seed + 1);
  ServerNumbers SN = probeServer(C, Small, T, O);

  reconcile(T, *std::min_element(EndToEnd.begin(), EndToEnd.end()),
            UntracedNs, Traced, O);
  emitLayerMetrics(T, Tot, DN.Efficiency, DN.Units, DN.Failed, CacheBytes, SN,
                   O);
  T.write(C.WorkDir + "/trace-batch_corpus.jsonl");
}

/// One shape family of the corpus ("chain", "mixed", "nest", "deps",
/// "fuzz", "corpus"), batched on its own.
struct Family {
  std::string Kind;
  std::vector<driver::SourceInput> Inputs;
  std::vector<size_t> Index; ///< position of each input in the corpus
  uint64_t Instrs = 0;
  std::vector<double> WallMs;
};

std::vector<Family> families(const BatchSetup &S) {
  std::vector<Family> Out;
  for (size_t I = 0; I < S.Units.size(); ++I) {
    auto It = std::find_if(Out.begin(), Out.end(), [&](const Family &F) {
      return F.Kind == S.Units[I].Kind;
    });
    if (It == Out.end())
      It = Out.insert(Out.end(), Family{S.Units[I].Kind, {}, {}, 0, {}});
    It->Inputs.push_back(S.Inputs[I]);
    It->Index.push_back(I);
    It->Instrs += S.UnitInstrs[I];
  }
  return Out;
}

} // namespace

DriverNumbers probeDriver(const std::vector<Unit> &Units, unsigned Jobs,
                          Tracer &T) {
  std::vector<driver::SourceInput> In;
  for (const Unit &U : Units)
    In.push_back({U.Name, U.Text});
  DriverNumbers DN;
  uint64_t A = wallNs();
  {
    Scope S(&T, "driver.batch_j1", 0);
    driver::analyzeBatch(In, batchDefaults(1));
  }
  uint64_t B = wallNs();
  driver::BatchResult R;
  {
    Scope S(&T, "driver.batch", 0);
    R = driver::analyzeBatch(In, batchDefaults(Jobs));
  }
  uint64_t E = wallNs();
  DN.Efficiency = double(B - A) / (double(E - B) * double(Jobs));
  DN.Units = R.Units.size();
  DN.Failed = R.Failed;
  return DN;
}

void runBatch(const Config &C, Outcome &O) {
  BatchSetup S;
  std::vector<double> SetupS;
  for (uint64_t Spent = 0; repeatSetup(SetupS.size(), Spent);) {
    uint64_t A = wallNs();
    setUp(C, S, O);
    SetupS.push_back(double(wallNs() - A) / 1e9);
    Spent += wallNs() - A;
  }
  size_t Distinct = distinctTexts(S.Units);
  row("inputs.units", double(S.Units.size()), "units",
      "distinct texts=" + std::to_string(Distinct) + ", corpus files=" +
          std::to_string(S.Units.size() - S.CorpusBegin));
  O.op(Distinct == S.Units.size(), "batch: generated texts are not distinct");
  row("inputs.instructions", double(S.Instrs), "instr");
  checkGoldens(S, O);
  oracleCheck(sampleUnits(S.Units, OracleSample, C.Seed), O);
  if (C.Trace) {
    batchTraced(C, S, O);
    return;
  }

  // Each round: one pass over the whole corpus, then one pass per shape
  // family.  The family passes give ns_per_instr_geomean, which weighs
  // every family the same, so a change to one family shows even when
  // another dominates the corpus's time.
  std::vector<Family> Fams = families(S);
  std::vector<double> WallMs, CpuMs;
  uint64_t FamilyUnits = 0, FailedUnits = 0, Mismatch = 0;
  resetPeakRss();
  uint64_t Begin = wallNs();
  while (WallMs.empty() || double(wallNs() - Begin) < C.Seconds * 1e9) {
    uint64_t Cpu = processCpuNs(), A = wallNs();
    driver::BatchResult R = driver::analyzeBatch(S.Inputs,
                                                 batchDefaults(C.Jobs));
    uint64_t B = wallNs();
    WallMs.push_back(double(B - A) / 1e6);
    CpuMs.push_back(double(processCpuNs() - Cpu) / 1e6);
    FailedUnits += R.Failed;
    // Outside the timed region: -jN must be byte-identical to -j1.
    Mismatch += R.renderText() == S.Reference ? 0 : 1;
    for (Family &F : Fams) {
      uint64_t FA = wallNs();
      driver::BatchResult FR =
          driver::analyzeBatch(F.Inputs, batchDefaults(C.Jobs));
      F.WallMs.push_back(double(wallNs() - FA) / 1e6);
      FailedUnits += FR.Failed;
      FamilyUnits += FR.Units.size();
      for (size_t K = 0; K < FR.Units.size(); ++K)
        Mismatch += FR.Units[K].ReportText == S.UnitReports[F.Index[K]] ? 0 : 1;
    }
  }
  double PeakMb = peakRssMb();
  O.ops(WallMs.size() * S.Units.size() + FamilyUnits, FailedUnits,
        "batch: units failed in timed passes");
  O.ops(WallMs.size() + FamilyUnits, Mismatch,
        "batch: -jN report differs from -j1");

  double P50 = median(WallMs);
  std::printf("batch passes at -j%u (wall; process CPU beside it):\n",
              C.Jobs);
  dist("pass_wall", WallMs);
  dist("pass_cpu", CpuMs);
  std::printf("%-8s %6s %10s %10s %10s %6s\n", "family", "units", "instrs",
              "wall_ms", "ns/instr", "n");
  std::vector<double> FamilyNs;
  for (const Family &F : Fams) {
    double Ms = median(F.WallMs);
    FamilyNs.push_back(Ms * 1e6 / double(F.Instrs));
    std::printf("%-8s %6zu %10llu %10.3f %10.1f %6zu\n", F.Kind.c_str(),
                F.Inputs.size(), (unsigned long long)F.Instrs, Ms,
                FamilyNs.back(), F.WallMs.size());
  }
  O.metric("setup_s", median(SetupS), "s");
  O.metric("instr_per_s", double(S.Instrs) / (P50 / 1e3), "instr/s");
  O.metric("p50_ms", P50, "ms");
  O.metric("tail_ms", quantile(WallMs, tailQuantile(WallMs.size())), "ms");
  O.metric("ns_per_instr_geomean", geomean(FamilyNs), "ns/instr");
  O.metric("peak_rss_mb", PeakMb, "MB");
}

} // namespace pb
