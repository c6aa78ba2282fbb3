//===- bench/bench_serve.cpp - B8: daemon round-trip throughput ---------------===//
//
// Drives an in-process `bivc --serve` daemon end-to-end over a unix-domain
// socket: a seeded corpus is pushed through concurrent blocking clients
// twice -- once cold (every request a cache miss) and once warm (every
// request served from the shared cache) -- and the record is wall-clock
// throughput for both passes plus the warm pass's hit rate and latency.
// Warm latency is reported twice: exact p50/p99 of the round trips the
// clients timed (connect to reply read), and the upper bounds the daemon's
// own `serve.latency_ns` log2 histogram gives for the same quantiles
// (admission to reply written; read from the difference of stats snapshots
// taken around the warm pass).  Socket framing, admission, scheduling, and
// the shared-cache lock are all on the measured path.
//
//   bench_serve [--functions=N] [--clients=N] [--jobs=N] [--quick]
//               [--json=PATH]
//
// --json=PATH writes the record as one JSON object.  `ctest -C bench -L
// bench-smoke` runs it with --quick.
//
//===----------------------------------------------------------------------===//

#include "WorkloadGen.h"
#include "driver/Unit.h"
#include "server/Client.h"
#include "server/Server.h"
#include "support/Stats.h"
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace biv;

namespace {

// What `bivc --connect` sends without flags: the one-shot switches.
const uint64_t DefaultBits = driver::AnalysisOptions::oneShot().bits();

/// Counter \p Name in \p S; zero when it never fired.
uint64_t counterOf(const stats::StatsSnapshot &S, const char *Name) {
  auto It = S.Counters.find(Name);
  return It == S.Counters.end() ? 0 : It->second;
}

/// Histogram \p Name restricted to what was observed between the snapshots
/// \p Before and \p After.
stats::HistValue histSince(const stats::StatsSnapshot &Before,
                           const stats::StatsSnapshot &After,
                           const char *Name) {
  auto A = After.Hists.find(Name);
  if (A == After.Hists.end())
    return {};
  stats::HistValue H = A->second;
  auto B = Before.Hists.find(Name);
  if (B == Before.Hists.end())
    return H;
  H.Count -= B->second.Count;
  H.Sum -= B->second.Sum;
  for (size_t I = 0; I < H.Buckets.size() && I < B->second.Buckets.size();
       ++I)
    H.Buckets[I] -= B->second.Buckets[I];
  return H;
}

/// One pass over the corpus: wall clock, outcome counts, and the sorted
/// round-trip time of every successful request as the client saw it.
struct PassResult {
  double WallMs = 0.0;
  uint64_t Ok = 0;
  uint64_t Failed = 0;
  std::vector<uint64_t> LatNs;
};

/// Pushes every source through the daemon once, sharded over Clients
/// concurrent blocking connections.
PassResult runPass(const std::string &Socket,
                   const std::vector<std::string> &Sources,
                   unsigned Clients) {
  std::atomic<size_t> Next{0};
  std::mutex Merge;
  PassResult P;
  P.LatNs.reserve(Sources.size());
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&] {
      std::vector<uint64_t> Local;
      uint64_t Ok = 0, Failed = 0;
      for (;;) {
        size_t I = Next.fetch_add(1);
        if (I >= Sources.size())
          break;
        server::Request Q;
        Q.OptsBits = DefaultBits;
        Q.Source = Sources[I];
        server::Response R;
        std::string Err;
        auto S0 = std::chrono::steady_clock::now();
        bool Sent = server::call(Socket, Q, R, Err);
        auto S1 = std::chrono::steady_clock::now();
        if (Sent && R.S == server::Status::Ok) {
          ++Ok;
          Local.push_back(uint64_t(
              std::chrono::duration_cast<std::chrono::nanoseconds>(S1 - S0)
                  .count()));
        } else {
          ++Failed;
        }
      }
      std::lock_guard<std::mutex> Lock(Merge);
      P.Ok += Ok;
      P.Failed += Failed;
      P.LatNs.insert(P.LatNs.end(), Local.begin(), Local.end());
    });
  for (std::thread &T : Threads)
    T.join();
  auto T1 = std::chrono::steady_clock::now();
  P.WallMs = std::chrono::duration<double, std::milli>(T1 - T0).count();
  std::sort(P.LatNs.begin(), P.LatNs.end());
  return P;
}

uint64_t quantile(const std::vector<uint64_t> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  size_t I = size_t(Q * double(Sorted.size() - 1));
  return Sorted[std::min(I, Sorted.size() - 1)];
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Functions = 1000;
  unsigned Clients = 8;
  unsigned Jobs = 0; // hardware concurrency, the daemon default
  std::string JsonPath;
  bool Quick = false;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strncmp(A, "--functions=", 12) == 0)
      Functions = unsigned(std::strtoul(A + 12, nullptr, 10));
    else if (std::strncmp(A, "--clients=", 10) == 0)
      Clients = unsigned(std::strtoul(A + 10, nullptr, 10));
    else if (std::strncmp(A, "--jobs=", 7) == 0)
      Jobs = unsigned(std::strtoul(A + 7, nullptr, 10));
    else if (std::strncmp(A, "--json=", 7) == 0)
      JsonPath = A + 7;
    else if (std::strcmp(A, "--quick") == 0)
      Quick = true;
    else {
      std::fprintf(stderr,
                   "usage: bench_serve [--functions=N] [--clients=N] "
                   "[--jobs=N] [--quick] [--json=PATH]\n");
      return 2;
    }
  }
  if (Quick) {
    Functions = std::min(Functions, 64u);
    Clients = std::min(Clients, 4u);
  }
  std::vector<bench::CorpusUnit> Corpus = bench::genCorpus(Functions);
  std::vector<std::string> Sources;
  Sources.reserve(Corpus.size());
  for (const bench::CorpusUnit &U : Corpus)
    Sources.push_back(U.Text);

  std::string Dir = (std::filesystem::temp_directory_path() /
                     ("biv_bench_serve_" + std::to_string(::getpid())))
                        .string();
  std::filesystem::create_directories(Dir);

  server::ServerOptions SO;
  SO.Threads = Jobs;
  SO.AdmitLimit = 4096; // measure throughput, not rejection
  SO.CachePath = Dir + "/serve.cache";
  server::Server S(Dir + "/serve.sock", SO);
  std::string Err;
  if (!S.start(Err)) {
    std::fprintf(stderr, "bench_serve: %s\n", Err.c_str());
    return 1;
  }

  std::printf("# B8: daemon round-trip throughput (%u functions, "
              "%u clients, -j%u)\n",
              Functions, Clients, Jobs);
  PassResult Cold = runPass(S.socketPath(), Sources, Clients);
  stats::StatsSnapshot AfterCold = S.statsSnapshot();
  PassResult Warm = runPass(S.socketPath(), Sources, Clients);
  stats::StatsSnapshot AfterWarm = S.statsSnapshot();

  // Warm-pass figures only: the cold pass's hits (duplicate sources in the
  // corpus) and latencies stay out of them.
  uint64_t WarmHits =
      counterOf(AfterWarm, "cache.hit") - counterOf(AfterCold, "cache.hit");
  uint64_t Overloaded = counterOf(AfterWarm, "serve.overloaded");
  stats::HistValue WarmLatency =
      histSince(AfterCold, AfterWarm, "serve.latency_ns");
  uint64_t P50 = WarmLatency.Count ? WarmLatency.quantileUpperBound(0.5) : 0;
  uint64_t P99 = WarmLatency.Count ? WarmLatency.quantileUpperBound(0.99) : 0;
  uint64_t ExactP50 = quantile(Warm.LatNs, 0.5);
  uint64_t ExactP99 = quantile(Warm.LatNs, 0.99);
  bool DrainOk = S.drain(Err);
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  if (!DrainOk) {
    std::fprintf(stderr, "bench_serve: %s\n", Err.c_str());
    return 1;
  }

  double ColdRps = Cold.WallMs > 0 ? 1000.0 * Functions / Cold.WallMs : 0.0;
  double WarmRps = Warm.WallMs > 0 ? 1000.0 * Functions / Warm.WallMs : 0.0;
  std::printf("%10s %12s %14s\n", "pass", "wall_ms", "requests_per_s");
  std::printf("%10s %12.2f %14.0f\n", "cold", Cold.WallMs, ColdRps);
  std::printf("%10s %12.2f %14.0f\n", "warm", Warm.WallMs, WarmRps);
  std::printf("# warm latency p50 %llu ns, p99 %llu ns (client-timed); "
              "histogram bounds p50 <= %llu ns, p99 <= %llu ns\n",
              (unsigned long long)ExactP50, (unsigned long long)ExactP99,
              (unsigned long long)P50, (unsigned long long)P99);
  std::printf("# warm hits %llu/%u, overloaded %llu\n",
              (unsigned long long)WarmHits, Functions,
              (unsigned long long)Overloaded);

  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    if (!Out) {
      std::fprintf(stderr, "bench_serve: cannot write %s\n",
                   JsonPath.c_str());
      return 1;
    }
    char Buf[1024];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\n"
        "  \"functions\": %u,\n  \"clients\": %u,\n  \"jobs\": %u,\n"
        "  \"cold_ms\": %.2f,\n  \"warm_ms\": %.2f,\n"
        "  \"cold_rps\": %.0f,\n  \"warm_rps\": %.0f,\n"
        "  \"warm_p50_ns\": %llu,\n  \"warm_p99_ns\": %llu,\n"
        "  \"warm_latency_p50_ns_le\": %llu,\n"
        "  \"warm_latency_p99_ns_le\": %llu,\n"
        "  \"warm_hit_rate\": %.4f,\n  \"overloaded\": %llu\n}\n",
        Functions, Clients, Jobs, Cold.WallMs, Warm.WallMs, ColdRps,
        WarmRps, (unsigned long long)ExactP50, (unsigned long long)ExactP99,
        (unsigned long long)P50, (unsigned long long)P99,
        Functions ? double(WarmHits) / double(Functions) : 0.0,
        (unsigned long long)Overloaded);
    Out << Buf;
    Out.flush();
    if (!Out) {
      std::fprintf(stderr, "bench_serve: error writing %s\n",
                   JsonPath.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", JsonPath.c_str());
  }

  // The daemon's contract doubles as the bench's acceptance check: every
  // request answered, none lost, and the warm pass fully cache-served.
  if (Cold.Failed || Warm.Failed || WarmHits < Functions) {
    std::fprintf(stderr,
                 "bench_serve: lifecycle violation (failed %llu/%llu, "
                 "warm hits %llu/%u)\n",
                 (unsigned long long)Cold.Failed,
                 (unsigned long long)Warm.Failed,
                 (unsigned long long)WarmHits, Functions);
    return 1;
  }
  return 0;
}
