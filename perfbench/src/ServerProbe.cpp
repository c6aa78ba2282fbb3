//===- perfbench/src/ServerProbe.cpp - Server layer probe -----------------===//
///
/// The server layer's numbers for the traced runs: an in-process
/// server::Server on a unix socket (2 analysis threads, a cache file,
/// otherwise the default `--serve` configuration), primed with the
/// workload's units, then an idle round trip, the protocol codec, and a
/// short open-loop stretch at a fixed rate from at most two connections.
/// Requests are due on a fixed schedule; each latency runs from its due
/// time, so a stall also charges the requests queued behind it.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "cache/AnalysisCache.h"
#include "server/Client.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <time.h>

using namespace biv;
namespace fs = std::filesystem;

namespace pb {
namespace {

constexpr unsigned ServerThreads = 2;
constexpr unsigned Connections = 2;
/// The loaded stretch: ProbeRequests requests due at ProbeRps.
constexpr size_t ProbeRequests = 800;

/// A server with its own cache file and socket under a fresh directory.
class LiveServer {
public:
  explicit LiveServer(const std::string &Dir) : Dir(Dir) {
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    server::ServerOptions SO;
    SO.Threads = ServerThreads;
    SO.CachePath = Dir + "/serve.cache";
    S = std::make_unique<server::Server>(socket(), SO);
    std::string Err;
    if (!S->start(Err))
      throw std::runtime_error("server start: " + Err);
  }
  ~LiveServer() {
    S->requestShutdown();
    std::string Err;
    if (!S->drain(Err))
      std::fprintf(stderr, "perfbench: server drain: %s\n", Err.c_str());
  }
  LiveServer(const LiveServer &) = delete;
  LiveServer &operator=(const LiveServer &) = delete;

  std::string socket() const { return Dir + "/s.sock"; }

private:
  std::string Dir;
  std::unique_ptr<server::Server> S;
};

struct LoadResult {
  std::vector<double> LatMs, LagMs;
  uint64_t Overloaded = 0, Deadline = 0, Transport = 0, BadReply = 0,
           OtherStatus = 0;
  uint64_t failures() const {
    return Overloaded + Deadline + Transport + BadReply + OtherStatus;
  }
};

void sleepUntil(uint64_t Ns) {
  timespec T{time_t(Ns / 1000000000ull), long(Ns % 1000000000ull)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &T, nullptr) != 0) {
  }
}

bool sendOne(const std::string &Sock, const Unit &U, server::Response &R,
             std::string &Err) {
  server::Request Q;
  Q.Kind = server::RequestKind::Analyze;
  Q.OptsBits = OneShotBits;
  Q.Source = U.Text;
  return server::call(Sock, Q, R, Err);
}

/// Sends \p N requests cycling through \p Units at \p Rps from
/// \p Connections client threads, with a `server.call` span around each;
/// every reply must equal \p Expect for its unit.  Lag is how late the
/// generator itself sent: the send time minus the later of the due time and
/// the moment its connection became free.
LoadResult runLoad(const std::string &Sock, const std::vector<Unit> &Units,
                   const std::vector<std::string> &Expect, size_t N,
                   double Rps, Tracer &T) {
  LoadResult R;
  R.LatMs.assign(N, 0);
  R.LagMs.assign(N, 0);
  std::vector<uint8_t> Status(N, 0);
  std::atomic<size_t> Next{0};
  const uint64_t T0 = wallNs() + 2000000;
  const double Period = 1e9 / Rps;
  auto Client = [&] {
    uint64_t FreeAt = T0;
    for (;;) {
      size_t I = Next.fetch_add(1);
      if (I >= N)
        return;
      uint64_t Due = T0 + uint64_t(double(I) * Period);
      if (wallNs() < Due)
        sleepUntil(Due);
      uint64_t Sent = wallNs();
      server::Response Resp;
      std::string Err;
      bool OK;
      {
        Scope S(&T, "server.call", uint32_t(I));
        OK = sendOne(Sock, Units[I % Units.size()], Resp, Err);
      }
      uint64_t Done = wallNs();
      R.LatMs[I] = double(Done - Due) / 1e6;
      R.LagMs[I] = double(Sent - std::max(Due, FreeAt)) / 1e6;
      FreeAt = Done;
      if (!OK)
        Status[I] = 1;
      else if (Resp.S == server::Status::Overloaded)
        Status[I] = 2;
      else if (Resp.S == server::Status::DeadlineExceeded)
        Status[I] = 3;
      else if (Resp.S != server::Status::Ok)
        Status[I] = 4;
      else if (Resp.Body != Expect[I % Units.size()])
        Status[I] = 5;
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Connections; ++C)
    Threads.emplace_back(Client);
  for (std::thread &Th : Threads)
    Th.join();
  for (uint8_t S : Status) {
    switch (S) {
    case 1: ++R.Transport; break;
    case 2: ++R.Overloaded; break;
    case 3: ++R.Deadline; break;
    case 4: ++R.OtherStatus; break;
    case 5: ++R.BadReply; break;
    default: break;
    }
  }
  return R;
}

/// Idle round trip of a warm hit, and the in-process cost of the same
/// hit's parse + digest + lookup, as medians over calls cycling through
/// \p Units (all already in the server's cache).
void idleRtt(const std::string &Sock, const std::vector<Unit> &Units,
             const std::string &Dir, ServerNumbers &SN, Outcome &O) {
  const size_t N = 300;
  std::vector<double> Rtt, InProc;
  for (size_t I = 0; I < N; ++I) {
    server::Response R;
    std::string Err;
    uint64_t A = wallNs();
    bool OK = sendOne(Sock, Units[I % Units.size()], R, Err);
    Rtt.push_back(double(wallNs() - A) / 1e3);
    O.op(OK && R.S == server::Status::Ok, "server probe: idle call failed");
  }
  cache::AnalysisCache Cache;
  std::string Err;
  fs::remove(Dir + "/inproc.cache");
  if (!Cache.open(Dir + "/inproc.cache", Err))
    throw std::runtime_error("in-process cache: " + Err);
  for (size_t I = 0; I < std::min(N, Units.size()); ++I)
    replayUnit(Units[I], Path::Served, false, 0, nullptr, &Cache); // misses
  for (size_t I = 0; I < N; ++I) {
    uint64_t A = wallNs();
    Replay R = replayUnit(Units[I % Units.size()], Path::Served, false, 0,
                          nullptr, &Cache);
    InProc.push_back(double(wallNs() - A) / 1e3);
    O.op(R.Hit, "server probe: in-process replay missed a primed unit");
  }
  SN.IdleRttUs = median(Rtt);
  SN.InProcessHitUs = median(InProc);
}

/// Request and response encode + decode, ns per payload byte.
double codecNsPerByte(const std::vector<Unit> &Units,
                      const std::vector<std::string> &Bodies) {
  uint64_t Bytes = 0, Ns = 0;
  for (int Rep = 0; Rep < 20; ++Rep)
    for (size_t I = 0; I < Units.size(); ++I) {
      server::Request Q;
      Q.OptsBits = OneShotBits;
      Q.Source = Units[I].Text;
      server::Response R;
      R.Body = Bodies[I];
      std::string Err;
      uint64_t A = wallNs();
      std::string QB = Q.encode(), RB = R.encode();
      server::Request Q2;
      server::Response R2;
      Q2.decode(QB, Err);
      R2.decode(RB, Err);
      Ns += wallNs() - A;
      Bytes += QB.size() + RB.size();
    }
  return Bytes ? double(Ns) / double(Bytes) : 0;
}

} // namespace

ServerNumbers probeServer(const Config &C, const std::vector<Unit> &Units,
                          Tracer &T, Outcome &O) {
  ServerNumbers SN;
  const std::string Dir = C.WorkDir + "/probe-serve";
  LiveServer Srv(Dir);
  std::vector<std::string> Expect;
  for (const Unit &U : Units) {
    Expect.push_back(replayUnit(U, Path::OneShot, false, 0, nullptr).Output);
    server::Response R;
    std::string Err;
    bool OK = sendOne(Srv.socket(), U, R, Err) && R.S == server::Status::Ok &&
              R.Body == Expect.back();
    O.op(OK, "server probe: reply differs from one-shot: " + U.Name);
  }
  idleRtt(Srv.socket(), Units, Dir, SN, O);
  SN.CodecNsPerByte = codecNsPerByte(Units, Expect);
  LoadResult L =
      runLoad(Srv.socket(), Units, Expect, ProbeRequests, ProbeRps, T);
  O.ops(ProbeRequests, L.failures(),
        "server probe: " + std::to_string(L.failures()) +
            " loaded calls failed (overloaded " + std::to_string(L.Overloaded) +
            ", deadline " + std::to_string(L.Deadline) + ", transport " +
            std::to_string(L.Transport) + ", wrong reply " +
            std::to_string(L.BadReply) + ")");
  dist("server.loaded@" + fmt(ProbeRps, 0) + "rps", L.LatMs);
  SN.WaitMsP50 = median(L.LatMs) - SN.IdleRttUs / 1e3;
  SN.LagMsP99 = quantile(L.LagMs, tailQuantile(L.LagMs.size()));
  SN.Overloaded = L.Overloaded;
  SN.Deadline = L.Deadline;
  SN.TransportErrors = L.Transport;
  return SN;
}

} // namespace pb
