//===- driver/BatchAnalyzer.cpp - Parallel batch analysis ----------------------===//

#include "driver/BatchAnalyzer.h"
#include "driver/ThreadPool.h"
#include <cctype>

using namespace biv;
using namespace biv::driver;

//===----------------------------------------------------------------------===//
// Function splitting
//===----------------------------------------------------------------------===//

std::vector<UnitSource>
biv::driver::splitFunctions(const SourceInput &File) {
  const std::string_view T = File.Text;
  std::vector<UnitSource> Units;
  size_t UnitStart = std::string::npos;
  std::string UnitName;

  auto flush = [&](size_t End) {
    if (UnitStart == std::string::npos)
      return;
    Units.push_back({File.Name + ":" + UnitName,
                     T.substr(UnitStart, End - UnitStart)});
    UnitStart = std::string::npos;
  };

  int Depth = 0;
  for (size_t I = 0; I < T.size(); ++I) {
    char C = T[I];
    if (C == '#') { // comment to end of line
      while (I < T.size() && T[I] != '\n')
        ++I;
      continue;
    }
    if (C == '{') {
      ++Depth;
      continue;
    }
    if (C == '}') {
      --Depth;
      continue;
    }
    // A top-level `func` keyword starts the next unit.
    if (Depth == 0 && C == 'f' && T.compare(I, 4, "func") == 0 &&
        (I == 0 || (!std::isalnum(unsigned(T[I - 1])) && T[I - 1] != '_')) &&
        I + 4 < T.size() && std::isspace(unsigned(T[I + 4]))) {
      flush(I);
      UnitStart = I;
      size_t P = I + 4;
      while (P < T.size() && std::isspace(unsigned(T[P])))
        ++P;
      UnitName.clear();
      while (P < T.size() &&
             (std::isalnum(unsigned(T[P])) || T[P] == '_'))
        UnitName += T[P++];
      I += 3;
    }
  }
  flush(T.size());

  if (Units.empty())
    return {{File.Name, T}}; // no `func` at all; let the parser diagnose it
  if (Units.size() == 1)
    Units.front().Name = File.Name; // common case: one function per file
  return Units;
}

//===----------------------------------------------------------------------===//
// Batch driver
//===----------------------------------------------------------------------===//

BatchResult biv::driver::analyzeBatch(const std::vector<SourceInput> &Sources,
                                      const BatchOptions &Opts) {
  // Shard: files -> functions.  Each function is one unit of work.
  // Units view the caller's texts, which outlive this call.
  std::vector<UnitSource> Units;
  Units.reserve(Sources.size());
  for (const SourceInput &S : Sources)
    for (UnitSource &U : splitFunctions(S))
      Units.push_back(std::move(U));

  BatchResult R;
  R.Units.resize(Units.size());

  // Miss results parked per slot; the driver thread commits them to the
  // cache in input order after the pool drains (digest 0 = nothing to add).
  std::vector<std::pair<uint64_t, cache::CacheEntry>> NewEntries(
      Opts.Cache ? Units.size() : 0);

  // Each unit owns its whole pipeline; slots are disjoint, so workers never
  // contend on anything but the queue.
  auto runUnit = [&](size_t I) {
    UnitResult &U = R.Units[I];
    U.Name = Units[I].Name;
    // Delta the worker thread's stats frame around this unit so the batch
    // can merge per-unit contributions in input order, independent of which
    // thread ran what.  Only the moved cells are kept.
    const stats::Frame Before = stats::captureFrame();
    try {
      if (Opts.PerUnitHook)
        Opts.PerUnitHook(Units[I]);
      UnitOutcome Out = analyzeUnit(Units[I].Text, Opts, Opts.Cache);
      cache::CacheEntry &E = Out.Result;
      U.OK = Out.OK;
      U.Errors = std::move(Out.Errors);
      U.ReportText = Out.MissDigest ? E.ReportText : std::move(E.ReportText);
      U.Stats = E.Stats;
      U.Kinds = E.Kinds;
      U.Instructions = size_t(E.Instructions);
      U.Loops = size_t(E.Loops);
      if (Out.MissDigest != 0)
        NewEntries[I] = {Out.MissDigest, std::move(E)};
    } catch (const std::exception &E) {
      // A throwing unit must fail loudly but locally: its siblings finish,
      // the batch reports which unit died, and the driver exits non-zero.
      U.OK = false;
      U.Errors.push_back(std::string("internal error: ") + E.what());
    }
    U.StatsDelta = stats::sparseDelta(stats::threadFrame(), Before);
  };

  if (Opts.Jobs == 1) {
    for (size_t I = 0; I < Units.size(); ++I)
      runUnit(I);
  } else {
    ThreadPool Pool(Opts.Jobs);
    for (size_t I = 0; I < Units.size(); ++I)
      Pool.submit([&runUnit, I] { runUnit(I); });
    Pool.wait();
  }

  if (Opts.Cache)
    for (auto &[Digest, E] : NewEntries)
      if (Digest != 0)
        Opts.Cache->insert(Digest, std::move(E));

  // Merge in input order.  Failed units' stats deltas count too (their
  // frontend diagnostics do); element-wise addition is commutative, so the
  // merged frame is identical for any Jobs value.
  for (const UnitResult &U : R.Units) {
    U.StatsDelta.addTo(R.MergedStats);
    if (!U.OK) {
      ++R.Failed;
      continue;
    }
    R.Stats += U.Stats;
    R.Kinds += U.Kinds;
    R.TotalInstructions += U.Instructions;
    R.TotalLoops += U.Loops;
  }
  return R;
}

std::string BatchResult::renderText() const {
  std::string Out;
  render([&Out](std::string_view S) { Out += S; });
  return Out;
}

void BatchResult::render(
    const std::function<void(std::string_view)> &Emit) const {
  for (const UnitResult &U : Units) {
    // Summary-only runs leave ReportText empty; a bare section header for
    // every healthy unit would just be noise, so only failures show.
    if (U.OK && U.ReportText.empty())
      continue;
    Emit(";; === " + U.Name + " ===\n");
    if (!U.OK) {
      for (const std::string &E : U.Errors)
        Emit(";; error: " + E + "\n");
      continue;
    }
    Emit(U.ReportText);
  }
  std::string Out;
  Out += ";; === batch summary ===\n";
  Out += ";; units: " + std::to_string(Units.size()) + " (failed " +
         std::to_string(Failed) + "), instructions: " +
         std::to_string(TotalInstructions) + ", loops: " +
         std::to_string(TotalLoops) + "\n";
  Out += ";; header-phi kinds: linear " + std::to_string(Kinds.Linear) +
         ", polynomial " + std::to_string(Kinds.Polynomial) + ", geometric " +
         std::to_string(Kinds.Geometric) + ", wrap-around " +
         std::to_string(Kinds.WrapAround) + ", periodic " +
         std::to_string(Kinds.Periodic) + ", monotonic " +
         std::to_string(Kinds.Monotonic) + ", phase-periodic " +
         std::to_string(Kinds.PhasePeriodic) + ", invariant " +
         std::to_string(Kinds.Invariant) + ", unknown " +
         std::to_string(Kinds.Unknown) + "\n";
  Out += ";; regions: " + std::to_string(Stats.Regions) +
         ", exit values materialized: " +
         std::to_string(Stats.ExitValuesMaterialized) + "\n";
  Emit(Out);
}
