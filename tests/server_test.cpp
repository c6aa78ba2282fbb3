//===- tests/server_test.cpp - Analysis daemon lifecycle ----------------------===//
//
// The `bivc --serve` acceptance surface, in-process against a real unix
// socket: byte-identical responses, warm shared cache, bounded admission
// with explicit overload replies, per-request deadlines, crash isolation,
// and the drain-on-shutdown guarantee that no accepted request is ever
// silently dropped.  tools/serve_soak.sh repeats the same checks against
// the installed binary under ThreadSanitizer.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "driver/Unit.h"
#include "frontend/Parser.h"
#include "server/Client.h"
#include "server/Server.h"
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <mutex>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace biv;
using namespace biv::server;

namespace {

// What `bivc --connect` sends without flags: the one-shot switches.
const uint64_t DefaultBits = driver::AnalysisOptions::oneShot().bits();

/// A fresh directory under the system temp dir; it and everything in it
/// go when the test binary exits.
std::string tempDir() {
  struct Made {
    std::vector<std::string> Dirs;
    ~Made() {
      std::error_code EC;
      for (const std::string &D : Dirs)
        std::filesystem::remove_all(D, EC);
    }
  };
  static Made M;
  static int Seq = 0;
  std::string D = (std::filesystem::temp_directory_path() /
                   ("biv_server_test_" + std::to_string(::getpid()) + "_" +
                    std::to_string(Seq++)))
                      .string();
  std::filesystem::create_directories(D);
  M.Dirs.push_back(D);
  return D;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Stdout of the built `bivc` run with \p Args; fails the test unless it
/// exits 0.
std::string runBivc(const std::string &Args) {
  std::string Out;
  FILE *P = ::popen(("'" BIV_BIVC "' " + Args).c_str(), "r");
  EXPECT_NE(P, nullptr) << Args;
  if (!P)
    return Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  EXPECT_EQ(::pclose(P), 0) << Args;
  return Out;
}

/// What one-shot `bivc FILE` prints for Source under the default flags.
std::string oneShotReport(const std::string &Source) {
  static const std::string Path = tempDir() + "/oneshot.biv";
  std::ofstream(Path) << Source;
  return runBivc("'" + Path + "'");
}

Response callOk(const std::string &Socket, const std::string &Source,
                uint64_t DeadlineMs = 0) {
  Request Q;
  Q.Kind = RequestKind::Analyze;
  Q.OptsBits = DefaultBits;
  Q.Source = Source;
  Q.DeadlineMs = DeadlineMs;
  Response R;
  std::string Err;
  EXPECT_TRUE(call(Socket, Q, R, Err)) << Err;
  return R;
}

const char *SimpleSrc = "func f(n) {"
                        "  s = 0;"
                        "  for L: i = 1 to n { s = s + i; }"
                        "  return s;"
                        "}";

} // namespace

TEST(ServerTest, ByteIdenticalToOneShotForCorpus) {
  // Three entry points, one answer: one-shot `bivc FILE`, the daemon under
  // the one-shot bits, and `bivc --batch --materialize FILE` once its `;;`
  // section and summary lines are dropped.
  std::string Dir = tempDir();
  Server S(Dir + "/d.sock", ServerOptions());
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  auto check = [&](const std::string &Path) {
    std::string OneShot = runBivc("'" + Path + "'");
    Response R = callOk(S.socketPath(), readFile(Path));
    ASSERT_EQ(R.S, Status::Ok) << Path << ": " << R.Body;
    EXPECT_EQ(R.Body, OneShot) << Path;
    std::istringstream Batch(runBivc("--batch --materialize '" + Path + "'"));
    std::string Line, Stripped;
    while (std::getline(Batch, Line))
      if (Line.rfind(";;", 0) != 0)
        Stripped += Line + "\n";
    EXPECT_EQ(Stripped, OneShot) << Path;
  };
  unsigned Checked = 0;
  for (const char *Root : {BIV_CORPUS_DIR, BIV_SAMPLES_DIR})
    for (const auto &Entry : std::filesystem::directory_iterator(Root))
      if (Entry.path().extension() == ".biv") {
        check(Entry.path().string());
        ++Checked;
      }
  EXPECT_GE(Checked, 15u) << "corpus and samples should hold many programs";

  // None of those reports depends on constant folding; this one does
  // (`s` steps by 8 only once SCCP folds `2 ^ 3`).
  std::string Folded = Dir + "/folded.biv";
  std::ofstream(Folded) << "func f(n) {\n  c = 2 ^ 3;\n  s = 0;\n"
                           "  for L1: i = 1 to n {\n    s = s + c;\n  }\n"
                           "  return s;\n}\n";
  check(Folded);
  EXPECT_NE(runBivc("'" + Folded + "'").find("s: (L1, 0, 8)"),
            std::string::npos);
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, WarmCacheServesRepeatsWithoutClassifying) {
  std::string Dir = tempDir();
  ServerOptions SO;
  SO.CachePath = Dir + "/d.cache";
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  Response Cold = callOk(S.socketPath(), SimpleSrc);
  ASSERT_EQ(Cold.S, Status::Ok) << Cold.Body;
  stats::StatsSnapshot After1 = S.statsSnapshot();

  Response Warm = callOk(S.socketPath(), SimpleSrc);
  ASSERT_EQ(Warm.S, Status::Ok) << Warm.Body;
  EXPECT_EQ(Warm.Body, Cold.Body) << "hit must be byte-identical";
  stats::StatsSnapshot After2 = S.statsSnapshot();

  EXPECT_EQ(After1.Counters.count("cache.hit"), 0u);
  EXPECT_EQ(After1.Counters.at("cache.miss"), 1u);
  EXPECT_EQ(After2.Counters.at("cache.hit"), 1u) << "hit counter must rise";
  EXPECT_EQ(After2.Counters.at("cache.miss"), 1u);
  // Classification really was skipped on the hit: the phase timer's span
  // count did not move between the two requests (hits replay counters but
  // never timers).
  EXPECT_EQ(After2.Timers.at("phase.classify").Spans,
            After1.Timers.at("phase.classify").Spans);
  // The request latency histogram saw both requests.
  EXPECT_EQ(After2.Hists.at("serve.latency_ns").Count, 2u);

  ASSERT_TRUE(S.drain(Err)) << Err;
  // The daemon persisted the shared cache on drain.
  EXPECT_TRUE(std::filesystem::exists(SO.CachePath));
}

TEST(ServerTest, OverloadedPastAdmissionBoundWhileEarlierComplete) {
  std::string Dir = tempDir();
  std::mutex M;
  std::condition_variable CV;
  bool Release = false;
  unsigned Held = 0;

  ServerOptions SO;
  SO.Threads = 2;
  SO.AdmitLimit = 2;
  SO.TestHookBeforeAnalyze = [&](const Request &) {
    std::unique_lock<std::mutex> Lock(M);
    ++Held;
    CV.notify_all();
    CV.wait(Lock, [&] { return Release; });
  };
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // Fill the admission bound with two requests parked in the test hook.
  std::vector<std::thread> Clients;
  std::vector<Response> Rs(2);
  for (int I = 0; I < 2; ++I)
    Clients.emplace_back([&, I] { Rs[I] = callOk(S.socketPath(), SimpleSrc); });
  {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return Held == 2; });
  }

  // The third arrival must get an explicit overloaded reply immediately.
  Response Over = callOk(S.socketPath(), SimpleSrc);
  EXPECT_EQ(Over.S, Status::Overloaded);
  EXPECT_NE(Over.Body.find("admission queue full"), std::string::npos)
      << Over.Body;

  // Release the held workers; the earlier requests still complete.
  {
    std::lock_guard<std::mutex> Lock(M);
    Release = true;
  }
  CV.notify_all();
  for (std::thread &T : Clients)
    T.join();
  for (const Response &R : Rs)
    EXPECT_EQ(R.S, Status::Ok) << R.Body;

  stats::StatsSnapshot Snap = S.statsSnapshot();
  EXPECT_EQ(Snap.Counters.at("serve.overloaded"), 1u);
  EXPECT_EQ(Snap.Counters.at("serve.completed"), 2u);
  // Queue-depth histogram saw every arrival, including the rejected one.
  EXPECT_EQ(Snap.Hists.at("serve.queue_depth").Count, 3u);
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, SigtermDrainsEveryAdmittedRequest) {
  std::string Dir = tempDir();
  std::mutex M;
  std::condition_variable CV;
  bool Release = false;
  unsigned Held = 0;

  ServerOptions SO;
  SO.Threads = 4;
  SO.TestHookBeforeAnalyze = [&](const Request &) {
    std::unique_lock<std::mutex> Lock(M);
    ++Held;
    CV.notify_all();
    CV.wait(Lock, [&] { return Release; });
  };
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  S.installSignalHandlers();

  constexpr unsigned N = 4;
  std::vector<std::thread> Clients;
  std::vector<Response> Rs(N);
  for (unsigned I = 0; I < N; ++I)
    Clients.emplace_back([&, I] { Rs[I] = callOk(S.socketPath(), SimpleSrc); });
  {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return Held == N; });
  }

  // SIGTERM arrives while all N requests are in flight...
  ASSERT_EQ(::raise(SIGTERM), 0);
  {
    std::lock_guard<std::mutex> Lock(M);
    Release = true;
  }
  CV.notify_all();
  S.waitForShutdown();
  ASSERT_TRUE(S.drain(Err)) << Err;

  // ...and every one of them was answered before the daemon exited.
  for (std::thread &T : Clients)
    T.join();
  for (const Response &R : Rs)
    EXPECT_EQ(R.S, Status::Ok) << R.Body;
  EXPECT_EQ(S.statsSnapshot().Counters.at("serve.completed"),
            uint64_t(N));
  // The socket file is gone: no client can half-connect to a dead daemon.
  EXPECT_FALSE(std::filesystem::exists(S.socketPath()));
}

TEST(ServerTest, CrashingRequestFailsAloneDaemonKeepsServing) {
  std::string Dir = tempDir();
  ServerOptions SO;
  SO.TestHookBeforeAnalyze = [](const Request &Q) {
    if (Q.Source.find("BOOM") != std::string::npos)
      throw std::runtime_error("injected worker crash");
  };
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  Response Crash = callOk(S.socketPath(), "// BOOM\nfunc f() { return 1; }");
  EXPECT_EQ(Crash.S, Status::AnalysisError);
  EXPECT_NE(Crash.Body.find("injected worker crash"), std::string::npos)
      << Crash.Body;

  // The daemon and its pool survived: the next request is served normally.
  Response After = callOk(S.socketPath(), SimpleSrc);
  EXPECT_EQ(After.S, Status::Ok) << After.Body;
  EXPECT_EQ(After.Body, oneShotReport(SimpleSrc));
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, ParseDiagnosticsComeBackAsAnalysisError) {
  std::string Dir = tempDir();
  Server S(Dir + "/d.sock", ServerOptions());
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  Response R = callOk(S.socketPath(), "func broken( {");
  EXPECT_EQ(R.S, Status::AnalysisError);
  EXPECT_FALSE(R.Body.empty());
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, TooDeepNestingIsRefusedDaemonKeepsServing) {
  // 20000-deep parentheses used to overflow the worker's stack and take the
  // daemon down.  Now the parser refuses them with a diagnostic, and the
  // deepest nests it accepts run like any other request.
  using testutil::deepExprSource;
  using testutil::deepStmtSource;
  std::string Dir = tempDir();
  Server S(Dir + "/d.sock", ServerOptions());
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  for (const std::string &Deep :
       {deepExprSource(20000), deepStmtSource(20000),
        deepExprSource(frontend::MaxNestingDepth + 1)}) {
    Response R = callOk(S.socketPath(), Deep);
    EXPECT_EQ(R.S, Status::AnalysisError);
    EXPECT_NE(R.Body.find("nested deeper than"), std::string::npos) << R.Body;
    Response After = callOk(S.socketPath(), SimpleSrc);
    EXPECT_EQ(After.S, Status::Ok) << After.Body;
    EXPECT_EQ(After.Body, oneShotReport(SimpleSrc));
  }
  for (const std::string &Deepest :
       {deepExprSource(frontend::MaxNestingDepth),
        deepStmtSource(frontend::MaxNestingDepth),
        deepStmtSource(frontend::MaxNestingDepth, /*Loops=*/true)}) {
    Response R = callOk(S.socketPath(), Deepest);
    EXPECT_EQ(R.S, Status::Ok) << R.Body;
    EXPECT_EQ(R.Body, oneShotReport(Deepest));
  }
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, DeadlineExpiredWhileQueuedIsNotAnalyzed) {
  std::string Dir = tempDir();
  std::mutex M;
  std::condition_variable CV;
  bool Release = false;
  bool HoldArrived = false;

  ServerOptions SO;
  SO.Threads = 1; // one worker, so the second request must queue
  SO.TestHookBeforeAnalyze = [&](const Request &Q) {
    if (Q.Source.find("HOLD") == std::string::npos)
      return;
    std::unique_lock<std::mutex> Lock(M);
    HoldArrived = true;
    CV.notify_all();
    CV.wait(Lock, [&] { return Release; });
  };
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  std::thread Blocker([&] {
    callOk(S.socketPath(), std::string("// HOLD\n") + SimpleSrc);
  });
  {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return HoldArrived; });
  }

  // This request's 1ms deadline expires while it waits for the worker.
  std::thread Expired([&] {
    Response R = callOk(S.socketPath(), SimpleSrc, /*DeadlineMs=*/1);
    EXPECT_EQ(R.S, Status::DeadlineExceeded) << R.Body;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  {
    std::lock_guard<std::mutex> Lock(M);
    Release = true;
  }
  CV.notify_all();
  Blocker.join();
  Expired.join();

  stats::StatsSnapshot Snap = S.statsSnapshot();
  EXPECT_EQ(Snap.Counters.at("serve.deadline_exceeded"), 1u);
  // The expired request never reached the pipeline: exactly one parse ran.
  EXPECT_EQ(Snap.Timers.at("phase.parse").Spans, 1u);
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, StatsRequestKindReturnsServerJson) {
  std::string Dir = tempDir();
  Server S(Dir + "/d.sock", ServerOptions());
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  Response First = callOk(S.socketPath(), SimpleSrc);
  ASSERT_EQ(First.S, Status::Ok) << First.Body;

  Request Q;
  Q.Kind = RequestKind::Stats;
  Response R;
  ASSERT_TRUE(call(S.socketPath(), Q, R, Err)) << Err;
  EXPECT_EQ(R.S, Status::Ok);
  // A worker folds its delta before replying, so a client that got its
  // answer is guaranteed to see its own request in a follow-up stats call.
  EXPECT_NE(R.Body.find("\"serve.completed\": 1"), std::string::npos)
      << R.Body;
  EXPECT_NE(R.Body.find("\"serve.latency_ns\""), std::string::npos)
      << R.Body;
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, MalformedFrameGetsBadRequest) {
  std::string Dir = tempDir();
  Server S(Dir + "/d.sock", ServerOptions());
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // Hand-roll a frame whose payload is garbage (wrong magic).
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::string Path = S.socketPath();
  ASSERT_LT(Path.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);
  ASSERT_TRUE(writeFrame(Fd, "garbage payload", Err)) << Err;
  std::string Payload;
  ASSERT_TRUE(readFrame(Fd, Payload, Err)) << Err;
  Response R;
  ASSERT_TRUE(R.decode(Payload, Err)) << Err;
  EXPECT_EQ(R.S, Status::BadRequest);
  ::close(Fd);
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, ClientGoneBeforeReplyIsAConnectionErrorNotACrash) {
  // A client that dies between sending its request and reading the reply
  // used to take the whole daemon down with SIGPIPE.  Now the write fails
  // as a per-connection error (counted), and the daemon keeps serving.
  std::string Dir = tempDir();
  std::mutex M;
  std::condition_variable CV;
  bool Parked = false, Release = false;

  ServerOptions SO;
  // One worker: the same thread that hits the dead socket serves the
  // follow-up request, folding the failure counter where stats can see it.
  SO.Threads = 1;
  SO.TestHookBeforeAnalyze = [&](const Request &) {
    std::unique_lock<std::mutex> Lock(M);
    Parked = true;
    CV.notify_all();
    CV.wait(Lock, [&] { return Release; });
  };
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // Raw connection: send a valid request, then vanish before the reply.
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::string Path = S.socketPath();
  ASSERT_LT(Path.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0);
  Request Q;
  Q.Kind = RequestKind::Analyze;
  Q.OptsBits = DefaultBits;
  Q.Source = SimpleSrc;
  ASSERT_TRUE(writeFrame(Fd, Q.encode(), Err)) << Err;
  // Wait until the worker holds the request, then kill the client side --
  // the reply is now guaranteed to hit a closed socket.
  {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return Parked; });
  }
  ::close(Fd);
  {
    std::lock_guard<std::mutex> Lock(M);
    Release = true;
  }
  CV.notify_all();

  // The daemon survived and still serves; the failed reply was counted.
  Response After = callOk(S.socketPath(), SimpleSrc);
  EXPECT_EQ(After.S, Status::Ok) << After.Body;
  EXPECT_EQ(After.Body, oneShotReport(SimpleSrc));
  stats::StatsSnapshot Snap = S.statsSnapshot();
  EXPECT_EQ(Snap.Counters.at("serve.reply_failures"), 1u);
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, NearMaxFrameSurvivesTinySendBufferAndNonblocking) {
  // writeFrame must loop through short writes.  Force the worst case: a
  // non-blocking sender with a minimal kernel send buffer pushing a frame
  // close to the 16MB cap through a socketpair while the reader drains.
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  int Tiny = 4096; // the kernel clamps to its floor; still far below 16MB
  ASSERT_EQ(::setsockopt(Sp[0], SOL_SOCKET, SO_SNDBUF, &Tiny, sizeof(Tiny)),
            0);
  ASSERT_EQ(::setsockopt(Sp[1], SOL_SOCKET, SO_RCVBUF, &Tiny, sizeof(Tiny)),
            0);
  int Flags = ::fcntl(Sp[0], F_GETFL, 0);
  ASSERT_GE(Flags, 0);
  ASSERT_EQ(::fcntl(Sp[0], F_SETFL, Flags | O_NONBLOCK), 0);

  std::string Payload(MaxFrameBytes - 64, '\0');
  for (size_t I = 0; I < Payload.size(); ++I)
    Payload[I] = char('a' + I % 23);

  std::string ReadErr;
  std::string Got;
  std::thread Reader([&] {
    if (!readFrame(Sp[1], Got, ReadErr))
      Got.clear();
  });
  std::string WriteErr;
  EXPECT_TRUE(writeFrame(Sp[0], Payload, WriteErr)) << WriteErr;
  Reader.join();
  EXPECT_TRUE(ReadErr.empty()) << ReadErr;
  EXPECT_EQ(Got.size(), Payload.size());
  EXPECT_EQ(Got, Payload) << "short writes must not reorder or drop bytes";
  ::close(Sp[0]);
  ::close(Sp[1]);
}

TEST(ServerTest, TcpFrontendServesByteIdenticalReports) {
  std::string Dir = tempDir();
  ServerOptions SO;
  SO.TcpSpec = "127.0.0.1:0"; // port 0: kernel picks, tcpPort() reports
  SO.CachePath = Dir + "/d.cache";
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  ASSERT_GT(S.tcpPort(), 0);

  std::string TcpEndpoint =
      "tcp:127.0.0.1:" + std::to_string(S.tcpPort());
  Response OverTcp = callOk(TcpEndpoint, SimpleSrc);
  ASSERT_EQ(OverTcp.S, Status::Ok) << OverTcp.Body;
  EXPECT_EQ(OverTcp.Body, oneShotReport(SimpleSrc));

  // Both frontends serve the same daemon: the unix path answers too, and
  // the TCP request warmed the shared cache for it.
  Response OverUnix = callOk(S.socketPath(), SimpleSrc);
  ASSERT_EQ(OverUnix.S, Status::Ok) << OverUnix.Body;
  EXPECT_EQ(OverUnix.Body, OverTcp.Body);
  EXPECT_EQ(S.statsSnapshot().Counters.at("cache.hit"), 1u);
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, PeriodicFlushPersistsCacheWithoutDrain) {
  // A daemon can die at any time; the cache must reach disk on a
  // cadence, not only at drain.  With the cadence at 1 the very first
  // miss is durable before the client even sees its reply.
  std::string Dir = tempDir();
  ServerOptions SO;
  SO.CachePath = Dir + "/d.cache";
  SO.CacheFlushEvery = 1;
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  Response R = callOk(S.socketPath(), SimpleSrc);
  ASSERT_EQ(R.S, Status::Ok) << R.Body;
  EXPECT_TRUE(std::filesystem::exists(SO.CachePath))
      << "cache must be flushed before the reply, not only at drain";

  // A second daemon sharing the file serves the entry as a warm hit.
  Server S2(Dir + "/d2.sock", SO);
  ASSERT_TRUE(S2.start(Err)) << Err;
  Response Warm = callOk(S2.socketPath(), SimpleSrc);
  ASSERT_EQ(Warm.S, Status::Ok) << Warm.Body;
  EXPECT_EQ(Warm.Body, R.Body);
  EXPECT_EQ(S2.statsSnapshot().Counters.at("cache.hit"), 1u);
  ASSERT_TRUE(S2.drain(Err)) << Err;
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, ConnectionsAfterDrainAreRefusedPolitely) {
  std::string Dir = tempDir();
  Server S(Dir + "/d.sock", ServerOptions());
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  Response R = callOk(S.socketPath(), SimpleSrc);
  ASSERT_EQ(R.S, Status::Ok);
  ASSERT_TRUE(S.drain(Err)) << Err;

  // The socket is unlinked; a late client gets a connect error rather
  // than a hang.
  Request Q;
  Q.Source = SimpleSrc;
  Q.OptsBits = DefaultBits;
  Response Late;
  EXPECT_FALSE(call(S.socketPath(), Q, Late, Err));
}

TEST(ServerTest, SecondDaemonOnALiveSocketIsRefusedFirstKeepsServing) {
  std::string Dir = tempDir();
  Server S(Dir + "/d.sock", ServerOptions());
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  Server Intruder(Dir + "/d.sock", ServerOptions());
  std::string IntruderErr;
  EXPECT_FALSE(Intruder.start(IntruderErr));
  EXPECT_NE(IntruderErr.find(Dir + "/d.sock"), std::string::npos)
      << IntruderErr;
  EXPECT_NE(IntruderErr.find("already serving"), std::string::npos)
      << IntruderErr;

  // The refused daemon neither took the path nor removed it: the first
  // one still answers on it.
  EXPECT_TRUE(std::filesystem::exists(S.socketPath()));
  Response R = callOk(S.socketPath(), SimpleSrc);
  ASSERT_EQ(R.S, Status::Ok) << R.Body;
  EXPECT_EQ(R.Body, oneShotReport(SimpleSrc));
  ASSERT_TRUE(Intruder.drain(Err)) << Err;
  EXPECT_TRUE(std::filesystem::exists(S.socketPath()));
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, StaleSocketFileIsReplaced) {
  // A daemon that died without draining leaves its socket file behind with
  // nothing accepting on it; the next daemon takes the path over.
  std::string Dir = tempDir();
  const std::string Path = Dir + "/d.sock";
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  ASSERT_EQ(::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  ::close(Fd); // The file stays; nobody listens on it.
  ASSERT_TRUE(std::filesystem::is_socket(Path));

  Server S(Path, ServerOptions());
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  Response R = callOk(S.socketPath(), SimpleSrc);
  ASSERT_EQ(R.S, Status::Ok) << R.Body;
  EXPECT_EQ(R.Body, oneShotReport(SimpleSrc));
  ASSERT_TRUE(S.drain(Err)) << Err;
}
