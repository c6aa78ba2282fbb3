//===- perfbench/src/Gen.cpp - Seeded benchmark inputs --------------------===//

#include "Gen.h"

#include "fuzz/ProgramGen.h"
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

namespace fs = std::filesystem;

namespace pb {
namespace {

/// SplitMix64: the benchmark's own generator, so its inputs do not change
/// when a generator inside the program under test does.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + int64_t(next() % uint64_t(Hi - Lo + 1));
  }

private:
  uint64_t State;
};

std::string num(int64_t V) { return std::to_string(V); }

/// Mixes a unit's index into the workload seed, so units are independent
/// draws and one seed gives one input set.
uint64_t unitSeed(uint64_t Seed, uint64_t Index, uint64_t Salt) {
  Rng R(Seed * 0x100000001b3ull + Index * 0x9e3779b97f4a7c15ull + Salt);
  return R.next();
}

/// A fuzz-grammar program renamed to \p Name.
std::string genFuzz(const std::string &Name, uint64_t Seed) {
  std::string Src = biv::fuzz::generateProgram(Seed, {});
  const std::string Head = "func fuzzed(";
  size_t At = Src.find(Head);
  if (At != std::string::npos)
    Src.replace(At, Head.size(), "func " + Name + "(");
  return Src;
}

std::string slurp(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

} // namespace

std::string genChain(const std::string &Name, unsigned N, uint64_t Seed,
                     uint64_t ShapeSeed) {
  Rng R(Seed), Shape(ShapeSeed);
  std::string Src = "func " + Name + "(n) {\n";
  for (unsigned K = 0; K < N; ++K)
    Src += "  v" + num(K) + " = " + num(R.range(0, 9)) + ";\n";
  Src += "  for L1: i = 1 to n {\n";
  for (unsigned K = 0; K < N; ++K) {
    std::string V = "v" + num(K);
    if (K == 0 || Shape.range(0, 2) == 0)
      Src += "    " + V + " = " + num(R.range(1, 9)) + "*i + " +
             num(R.range(0, 99)) + ";\n";
    else
      Src += "    " + V + " = v" + num(Shape.range(0, K - 1)) + " + " +
             num(R.range(1, 5)) + ";\n";
  }
  Src += "    A[v" + num(N - 1) + "] = i;\n";
  Src += "  }\n  return v0;\n}\n";
  return Src;
}

std::string genMixed(const std::string &Name, unsigned Groups,
                     uint64_t Seed) {
  Rng R(Seed);
  std::string Init, Body;
  for (unsigned G = 0; G < Groups; ++G) {
    std::string S = num(G);
    Init += "  lin" + S + " = " + num(R.range(0, 9)) + "; pol" + S + " = " +
            num(R.range(0, 3)) + "; geo" + S + " = 1; wrp" + S + " = " +
            num(R.range(5, 20)) + "; p" + S + " = 1; q" + S + " = 2; r" + S +
            " = 3; t" + S + " = 0; mon" + S + " = 0;\n";
    Body += "    lin" + S + " = lin" + S + " + " + num(R.range(1, 7)) + ";\n";
    Body += "    pol" + S + " = pol" + S + " + i;\n";
    Body += "    geo" + S + " = geo" + S + " * " + num(R.range(2, 3)) +
            " + " + num(R.range(0, 2)) + ";\n";
    Body += "    wrp" + S + " = i;\n";
    Body += "    t" + S + " = p" + S + "; p" + S + " = q" + S + "; q" + S +
            " = r" + S + "; r" + S + " = t" + S + ";\n";
    Body += "    if (A[i] > " + num(R.range(0, 5)) + ") { mon" + S + " = mon" +
            S + " + " + num(R.range(1, 3)) + "; }\n";
  }
  return "func " + Name + "(n) {\n" + Init + "  for L1: i = 1 to n {\n" +
         Body + "    B[lin0] = i;\n  }\n  return mon0;\n}\n";
}

std::string genNest(const std::string &Name, unsigned Depth, unsigned Trip,
                    uint64_t Seed) {
  Rng R(Seed);
  std::string Src = "func " + Name + "(n) {\n  k = " + num(R.range(0, 9)) +
                    ";\n";
  std::string Pad = "  ";
  for (unsigned D = 0; D < Depth; ++D) {
    Src += Pad + "for L" + num(D + 1) + ": i" + num(D + 1) + " = 1 to " +
           num(Trip) + " {\n";
    Pad += "  ";
  }
  Src += Pad + "k = k + " + num(R.range(1, 5)) + ";\n";
  Src += Pad + "A[k] = k + " + num(R.range(0, 9)) + ";\n";
  for (unsigned D = 0; D < Depth; ++D) {
    Pad.resize(Pad.size() - 2);
    Src += Pad + "}\n";
  }
  Src += "  return k;\n}\n";
  return Src;
}

std::string genBattery(const std::string &Name, unsigned Pairs,
                       uint64_t Seed, uint64_t ShapeSeed) {
  Rng R(Seed), Shape(ShapeSeed);
  std::string Init = "  w = " + num(R.range(50, 99)) +
                     "; p = 1; q = 2; t = 0; m = 0;\n";
  std::string Body;
  unsigned Phase = unsigned(Shape.range(0, 5));
  for (unsigned K = 0; K < Pairs; ++K) {
    std::string A = "A" + num(K);
    switch ((K + Phase) % 6) {
    case 0: // strong SIV, small distance: dependent
      Body += "    " + A + "[i] = " + A + "[i - " + num(R.range(1, 3)) +
              "] + 1;\n";
      break;
    case 1: // distinct strides: GCD-independent
      Body += "    " + A + "[2*i] = " + A + "[2*i + " +
              num(2 * R.range(0, 3) + 1) + "] + 1;\n";
      break;
    case 2: // beyond bounds: independent with known trip counts
      Body += "    " + A + "[i] = " + A + "[i + " + num(R.range(200, 900)) +
              "] + 1;\n";
      break;
    case 3: // wrap-around read
      Body += "    " + A + "[i] = " + A + "[w] + 1;\n";
      break;
    case 4: // periodic planes
      Body += "    " + A + "[p] = " + A + "[q] + 1;\n";
      break;
    case 5: // monotonic pack
      Body += "    if (" + A + "[i] > 0) { m = m + 1; " + A + "[m + " +
              num(R.range(150, 300)) + "] = i; }\n";
      break;
    }
  }
  return "func " + Name + "(n) {\n" + Init + "  for L1: i = 1 to " +
         num(R.range(60, 120)) + " {\n" + Body +
         "    w = i;\n    t = p; p = q; q = t;\n  }\n  return m;\n}\n";
}

std::vector<Unit> batchCorpus(uint64_t Seed, unsigned Count) {
  std::vector<Unit> Out;
  Out.reserve(Count);
  for (unsigned I = 0; I < Count; ++I) {
    Rng R(unitSeed(Seed, I, 1));
    uint64_t S = R.next();
    std::string Id = "u" + num(I);
    // 1 in 5 of each family; the draw, not the index, picks the family.
    switch (R.range(0, 4)) {
    case 0:
      Out.push_back({Id + "_chain",
                     genChain(Id + "_chain", unsigned(R.range(16, 96)), S, S),
                     "chain"});
      break;
    case 1:
      Out.push_back({Id + "_mixed",
                     genMixed(Id + "_mixed", unsigned(R.range(2, 8)),
                              R.next()),
                     "mixed"});
      break;
    case 2: {
      // Depth and trip vary together so interpretation stays bounded.
      unsigned Depth = unsigned(R.range(2, 6));
      unsigned Trip = unsigned(R.range(2, Depth <= 3 ? 9 : 4));
      Out.push_back({Id + "_nest",
                     genNest(Id + "_nest", Depth, Trip, R.next()), "nest"});
      break;
    }
    case 3:
      Out.push_back({Id + "_deps",
                     genBattery(Id + "_deps", unsigned(R.range(4, 16)), S, S),
                     "deps"});
      break;
    default:
      Out.push_back({Id + "_fz", genFuzz(Id + "_fz", R.next()), "fuzz"});
      break;
    }
  }
  return Out;
}

std::vector<Unit> oneShotLadder(uint64_t Seed) {
  // The seed draws the constants; the shape of each rung (which chain
  // statement feeds which, the battery's cycle) is fixed, so a rung costs
  // the same under every seed and the ladder varies only in size.
  std::vector<Unit> Out;
  unsigned I = 0;
  auto Add = [&](const std::string &Kind, unsigned Size, bool Deps,
                 bool Executable, auto Gen) {
    std::string Name = Kind + num(Size);
    Out.push_back({Name, Gen(Name, Size, unitSeed(Seed, I++, 2), Size), Kind,
                   Executable, Deps});
  };
  for (unsigned N : {512u, 1024u, 2048u, 4096u})
    Add("chain", N, false, true, genChain);
  for (unsigned D : {25u, 50u, 100u, 200u})
    Add("nest", D, false, false,
        [](const std::string &Name, unsigned Depth, uint64_t S, uint64_t) {
          return genNest(Name, Depth, 4, S);
        });
  for (unsigned G : {32u, 64u, 128u})
    Add("mixed", G, false, true,
        [](const std::string &Name, unsigned Groups, uint64_t S, uint64_t) {
          return genMixed(Name, Groups, S);
        });
  for (unsigned P : {48u, 96u, 192u})
    Add("deps", P, true, true, genBattery);
  return Out;
}

std::vector<Unit> corpusFiles(const std::string &RepoRoot,
                              std::vector<std::string> &Expect) {
  std::vector<fs::path> Files;
  fs::path Dir = fs::path(RepoRoot) / "tests" / "corpus";
  std::error_code EC;
  for (const auto &E : fs::directory_iterator(Dir, EC))
    if (E.path().extension() == ".biv")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  std::vector<Unit> Out;
  Expect.clear();
  for (const fs::path &P : Files) {
    fs::path Golden = P;
    Golden.replace_extension(".expect");
    Out.push_back({P.stem().string(), slurp(P), "corpus"});
    Expect.push_back(slurp(Golden));
  }
  return Out;
}

size_t distinctTexts(const std::vector<Unit> &Units) {
  std::unordered_set<std::string> Seen;
  for (const Unit &U : Units)
    Seen.insert(U.Text);
  return Seen.size();
}

} // namespace pb
