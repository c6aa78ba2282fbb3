//===- perfbench/src/OneShot.cpp - The oneshot_large workload -------------===//
///
/// The `bivc` binary with default options (`--classify --deps` for the
/// dependence batteries), one child process at a time, over size ladders
/// of chains, nests, mixed-class loops and batteries.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <spawn.h>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace fs = std::filesystem;

namespace pb {
namespace {

struct Child {
  bool OK = false;
  double WallMs = 0;
  double MaxRssMb = 0;
  std::string Stdout;
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

/// Spawns \p Args with stdout and stderr into files, and reaps it; the wall
/// time covers spawn to reap.
Child spawnWait(std::vector<std::string> Args, const std::string &Out) {
  Child R;
  std::string Err = Out + ".err";
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 1, Out.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&FA, 2, Err.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  pid_t Pid = 0;
  uint64_t A = wallNs();
  int Rc = posix_spawn(&Pid, Argv[0], &FA, nullptr, Argv.data(), environ);
  posix_spawn_file_actions_destroy(&FA);
  if (Rc != 0)
    return R;
  int Status = 0;
  rusage RU{};
  while (wait4(Pid, &Status, 0, &RU) < 0 && errno == EINTR) {
  }
  R.WallMs = double(wallNs() - A) / 1e6;
  R.MaxRssMb = double(RU.ru_maxrss) / 1024.0;
  R.OK = WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  R.Stdout = slurp(Out);
  return R;
}

/// Runs `bivc FILE`, or `bivc FILE --classify --deps` for a battery (the
/// classification report followed by the dependence report).
Child runBivc(const Config &C, const std::string &File, bool Deps) {
  std::vector<std::string> Args = {C.Bivc, File};
  if (Deps) {
    Args.push_back("--classify");
    Args.push_back("--deps");
  }
  return spawnWait(Args, File + ".out");
}

/// Replays bivc's one-shot path on \p File in a fresh process, as bivc
/// itself runs it, with spans when \p T is set (merged into \p T under
/// unit \p Id).  Fills \p R from the child's output and counts.
Child runReplay(const Config &C, const std::string &File, bool Deps,
                Tracer *T, uint32_t Id, Replay &R) {
  std::string Prefix = File + (T ? ".traced" : ".replay");
  Child K = spawnWait({C.Self, "--replay-unit", File, "--deps",
                       Deps ? "1" : "0", "--trace", T ? "1" : "0", "--out",
                       Prefix},
                      Prefix + ".stdout");
  R = Replay();
  R.Output = slurp(Prefix + ".out");
  std::ifstream Counts(Prefix + ".counts");
  int OK = 0;
  Counts >> OK >> R.Instrs >> R.Blocks >> R.Loops >> R.HeaderPhis >>
      R.Classified >> R.Pairs >> R.Independent;
  R.OK = K.OK && OK == 1 && bool(Counts);
  R.Analyzed = R.OK;
  if (T && !T->load(Prefix + ".jsonl", Id))
    R.OK = false;
  return K;
}

struct OneShotSetup {
  std::vector<Unit> Units;
  std::vector<std::string> Files;
};

void setUp(const Config &C, OneShotSetup &S) {
  S.Units = oneShotLadder(C.Seed);
  std::string Dir = C.WorkDir + "/oneshot";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  S.Files.clear();
  for (const Unit &U : S.Units) {
    S.Files.push_back(Dir + "/" + U.Name + ".biv");
    if (!writeFile(S.Files.back(), U.Text))
      throw std::runtime_error("cannot write " + S.Files.back());
  }
}

/// The smallest rung of each ladder: the off-path probes' inputs.
std::vector<Unit> smallest(const std::vector<Unit> &Units) {
  std::vector<Unit> Out;
  for (const Unit &U : Units)
    if (Out.empty() || Out.back().Kind != U.Kind)
      Out.push_back(U);
  return Out;
}

/// Counts one output check: bivc's stdout must equal the replay's output
/// byte for byte.  A mismatch leaves the replay beside the input.
void checkOutput(const Unit &U, const std::string &File,
                 const std::string &Out, const Replay &R, Outcome &O) {
  bool Same = R.OK && Out == R.Output;
  O.op(Same, "oneshot: bivc stdout differs from the replay for " + U.Name +
                 " (see " + File + ".replay)");
  if (!Same)
    writeFile(File + ".replay", R.Output);
}

void oneShotTraced(const Config &C, OneShotSetup &S, Outcome &O) {
  Tracer T;
  Totals Tot;
  // Per input, back to back so the machine's drift hits them alike:
  // ReconcileRounds rounds of bivc and the untraced replay in a fresh
  // process, then one traced replay.  bivc's stdout must be
  // what every replay computed.
  double EndToEnd = 0, Untraced = 0, Traced = 0;
  for (uint32_t I = 0; I < S.Units.size(); ++I) {
    const Unit &U = S.Units[I];
    std::vector<double> BivcMs, ReplayMs;
    std::string Out;
    for (int Round = 0; Round < ReconcileRounds; ++Round) {
      Child Bivc = runBivc(C, S.Files[I], U.Deps);
      O.op(Bivc.OK, "oneshot: bivc failed on " + U.Name);
      BivcMs.push_back(Bivc.WallMs);
      Replay R;
      Child K = runReplay(C, S.Files[I], U.Deps, nullptr, I, R);
      ReplayMs.push_back(K.WallMs);
      checkOutput(U, S.Files[I], Bivc.Stdout, R, O);
      Out = std::move(Bivc.Stdout);
    }
    Replay R;
    Traced += runReplay(C, S.Files[I], U.Deps, &T, I, R).WallMs * 1e6;
    Tot.add(R);
    checkOutput(U, S.Files[I], Out, R, O);
    EndToEnd += *std::min_element(BivcMs.begin(), BivcMs.end()) * 1e6;
    Untraced += *std::min_element(ReplayMs.begin(), ReplayMs.end()) * 1e6;
  }
  for (uint32_t I = 0; I < S.Units.size(); ++I) {
    materializeSplit(S.Units[I], I, T);
    Tot.MaterializeInstrs +=
        replayUnit(S.Units[I], Path::Batch, false, 0, nullptr).Instrs;
  }
  std::vector<Unit> Small = smallest(S.Units);
  uint64_t CacheBytes = probeCache(Small, C.WorkDir, T, Tot);
  DriverNumbers DN = probeDriver(S.Units, C.Jobs, T);
  ServerNumbers SN = probeServer(C, Small, T, O);
  reconcile(T, EndToEnd, Untraced, Traced, O);
  emitLayerMetrics(T, Tot, DN.Efficiency, DN.Units, DN.Failed, CacheBytes, SN,
                   O);
  T.write(C.WorkDir + "/trace-oneshot_large.jsonl");
}

} // namespace

int replayUnitMain(int Argc, char **Argv) {
  std::string File, Out;
  bool Deps = false, Traced = false;
  for (int I = 3; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--deps")
      Deps = V == "1";
    else if (K == "--trace")
      Traced = V == "1";
    else if (K == "--out")
      Out = V;
  }
  File = Argc > 2 ? Argv[2] : "";
  Unit U{File, slurp(File), "file"};
  Tracer T;
  Replay R = replayUnit(U, Path::OneShot, Deps, 0, Traced ? &T : nullptr);
  std::ofstream Counts(Out + ".counts");
  Counts << (R.OK ? 1 : 0) << ' ' << R.Instrs << ' ' << R.Blocks << ' '
         << R.Loops << ' ' << R.HeaderPhis << ' ' << R.Classified << ' '
         << R.Pairs << ' ' << R.Independent << '\n';
  Counts.flush();
  bool Wrote = writeFile(Out + ".out", R.Output) && bool(Counts) &&
               (!Traced || T.write(Out + ".jsonl"));
  return R.OK && Wrote ? 0 : 1;
}

void runOneShot(const Config &C, Outcome &O) {
  OneShotSetup S;
  std::vector<double> SetupS;
  for (uint64_t Spent = 0; repeatSetup(SetupS.size(), Spent);) {
    uint64_t A = wallNs();
    setUp(C, S);
    SetupS.push_back(double(wallNs() - A) / 1e9);
    Spent += wallNs() - A;
  }
  size_t Distinct = distinctTexts(S.Units);
  row("inputs.files", double(S.Units.size()), "files",
      "distinct texts=" + std::to_string(Distinct));
  O.op(Distinct == S.Units.size(), "oneshot: inputs are not distinct");
  oracleCheck(sampleUnits(S.Units, 4, C.Seed), O);
  if (C.Trace) {
    oneShotTraced(C, S, O);
    return;
  }

  // Passes over the whole ladder until the time is up.  Within a pass a
  // small input runs again until MinInputMs is spent on it (at most
  // MaxRepeats times), so process start-up jitter does not dominate its
  // median; a pass's wall counts each input's first run.
  constexpr double MinInputMs = 200;
  constexpr int MaxRepeats = 10;
  size_t N = S.Units.size();
  std::vector<std::vector<double>> WallMs(N);
  std::vector<double> PassS;
  double PeakMb = 0;
  std::vector<std::vector<std::string>> Outputs(N);
  uint64_t Begin = wallNs();
  while (PassS.empty() || double(wallNs() - Begin) < C.Seconds * 1e9) {
    double Pass = 0;
    for (size_t I = 0; I < N; ++I) {
      double Spent = 0;
      for (int Rep = 0; Rep == 0 || (Spent < MinInputMs && Rep < MaxRepeats);
           ++Rep) {
        Child K = runBivc(C, S.Files[I], S.Units[I].Deps);
        O.op(K.OK, "oneshot: bivc failed on " + S.Units[I].Name);
        WallMs[I].push_back(K.WallMs);
        Pass += Rep == 0 ? K.WallMs / 1e3 : 0;
        Spent += K.WallMs;
        PeakMb = std::max(PeakMb, K.MaxRssMb);
        Outputs[I].push_back(std::move(K.Stdout));
      }
    }
    PassS.push_back(Pass);
  }

  // Outside the timed region: every child's stdout must equal the replay
  // of bivc's one-shot path (in a fresh process, as bivc runs).
  std::printf("%-10s %10s %12s %12s %8s\n", "input", "instrs", "wall_ms",
              "ns/instr", "n");
  std::vector<double> NsPerInstr, InputMs;
  double TotalInstrs = 0;
  for (size_t I = 0; I < N; ++I) {
    Replay R;
    runReplay(C, S.Files[I], S.Units[I].Deps, nullptr, 0, R);
    for (const std::string &Out : Outputs[I])
      checkOutput(S.Units[I], S.Files[I], Out, R, O);
    double Ms = median(WallMs[I]);
    double Ns = Ms * 1e6 / double(R.Instrs);
    std::printf("%-10s %10llu %12.3f %12.1f %8zu\n", S.Units[I].Name.c_str(),
                (unsigned long long)R.Instrs, Ms, Ns, WallMs[I].size());
    NsPerInstr.push_back(Ns);
    InputMs.push_back(Ms);
    TotalInstrs += double(R.Instrs);
  }
  double WallS = median(PassS);
  row("wall_s", WallS, "s", "sum of child walls per pass, median of " +
                                std::to_string(PassS.size()) + " passes");
  O.metric("setup_s", median(SetupS), "s");
  O.metric("instr_per_s", TotalInstrs / WallS, "instr/s");
  O.metric("p50_ms", median(InputMs), "ms");
  O.metric("tail_ms", *std::max_element(InputMs.begin(), InputMs.end()),
           "ms");
  O.metric("ns_per_instr_geomean", geomean(NsPerInstr), "ns/instr");
  O.metric("peak_rss_mb", PeakMb, "MB");
}

} // namespace pb
