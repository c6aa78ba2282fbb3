//===- perfbench/src/main.cpp - Benchmark harness entry point -------------===//
///
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           --root DIR --work DIR [--commit ID]
///
/// Prints human-readable rows, a `meta` line, and as its last line one
/// JSON object: {"correct", "attempted", "failed", "metrics"}.  Exits 0
/// only when every operation and output check passed.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <thread>

namespace pb {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool Sanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||  \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool Sanitized = true;
#else
constexpr bool Sanitized = false;
#endif
#else
constexpr bool Sanitized = false;
#endif

#ifdef NDEBUG
constexpr bool Optimized = true;
#else
constexpr bool Optimized = false;
#endif

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (Ch == '\n')
      Out += "\\n";
    else if (Ch == '\t')
      Out += "\\t";
    else
      Out += Ch;
  }
  return Out + "\"";
}

bool parseArgs(int Argc, char **Argv, Config &C, std::string &Commit) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      C.Workload = V;
    else if (K == "--seed")
      C.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      C.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      C.Trace = V == "1";
    else if (K == "--root")
      C.Root = V;
    else if (K == "--work")
      C.WorkDir = V;
    else if (K == "--commit")
      Commit = V;
    else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", K.c_str());
      return false;
    }
  }
  return !C.Workload.empty() && !C.Root.empty() && !C.WorkDir.empty() &&
         C.Seconds > 0;
}

} // namespace
} // namespace pb

int main(int Argc, char **Argv) {
  using namespace pb;
  if (Argc > 1 && std::string(Argv[1]) == "--replay-unit")
    return replayUnitMain(Argc, Argv);
  Config C;
  std::string Commit = "unknown";
  if (!parseArgs(Argc, Argv, C, Commit)) {
    std::fprintf(stderr, "perfbench: bad arguments\n");
    return 2;
  }
  const std::string BuildType = PERFBENCH_BUILD_TYPE;
  if (!Optimized || Sanitized || BuildType == "Debug") {
    std::fprintf(stderr, "perfbench: refusing to time a %s%s build\n",
                 BuildType.c_str(), Sanitized ? " sanitizer" : "");
    return 2;
  }
  C.Bivc = PERFBENCH_BIVC;
  C.Self = std::filesystem::read_symlink("/proc/self/exe").string();
  unsigned Nproc = std::thread::hardware_concurrency();
  C.Jobs = Nproc ? Nproc : 1;
  std::filesystem::create_directories(C.WorkDir);

  std::printf("meta {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d, \"nproc\": %u, \"jobs\": %u, "
              "\"build_type\": %s, \"compiler\": %s, \"commit\": %s, "
              "\"server_probe_rps\": %s}\n",
              jsonString(C.Workload).c_str(), (unsigned long long)C.Seed,
              jsonNumber(C.Seconds).c_str(), C.Trace ? 1 : 0, Nproc, C.Jobs,
              jsonString(BuildType).c_str(),
              jsonString(PERFBENCH_COMPILER).c_str(),
              jsonString(Commit).c_str(), jsonNumber(ProbeRps).c_str());

  Outcome O;
  try {
    if (C.Workload == "batch_corpus")
      runBatch(C, O);
    else if (C.Workload == "oneshot_large")
      runOneShot(C, O);
    else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   C.Workload.c_str());
      return 2;
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 2;
  }

  for (const std::string &N : O.FailureNotes)
    std::printf("FAILED: %s\n", N.c_str());
  double Share = O.Attempted ? double(O.Failed) / double(O.Attempted) : 1.0;
  row("failed_share", Share, "ratio",
      std::to_string(O.Failed) + " of " + std::to_string(O.Attempted));
  for (const auto &M : O.Metrics)
    row(M.Name, M.Value, M.Unit);
  bool Correct = O.Failed == 0 && O.Attempted > 0;
  std::string J = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(O.Attempted) +
                  ", \"failed\": " + std::to_string(O.Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I < O.Metrics.size(); ++I)
    J += (I ? ", " : "") + jsonString(O.Metrics[I].Name) +
         ": {\"value\": " + jsonNumber(O.Metrics[I].Value) +
         ", \"unit\": " + jsonString(O.Metrics[I].Unit) + "}";
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
