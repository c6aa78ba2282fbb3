//===- support/Stats.cpp - Pipeline observability registry ---------------------===//

#include "support/Stats.h"
#include <cassert>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <vector>

using namespace biv;
using namespace biv::stats;

//===----------------------------------------------------------------------===//
// Name registry
//===----------------------------------------------------------------------===//

namespace {

/// Process-wide name tables.  Guarded by a mutex, but touched only when a
/// `static const Counter/Timer` is constructed -- never on the bump path.
struct NameRegistry {
  std::mutex M;
  std::vector<const char *> CounterNames;
  std::vector<const char *> TimerNames;
  std::vector<const char *> HistNames;
  /// Backing store for names that arrive as run-time strings (cache replay
  /// deserializes counter names from a file); a deque never reallocates, so
  /// the pointers handed to the name tables stay stable for the process
  /// lifetime.
  std::deque<std::string> OwnedNames;

  unsigned intern(std::vector<const char *> &Names, const char *Name,
                  unsigned Max) {
    std::lock_guard<std::mutex> Lock(M);
    for (unsigned I = 0; I < Names.size(); ++I)
      if (std::strcmp(Names[I], Name) == 0)
        return I;
    assert(Names.size() < Max && "stats cell space exhausted; raise the "
                                 "MaxCounters/MaxTimers constants");
    (void)Max;
    Names.push_back(Name);
    return unsigned(Names.size() - 1);
  }

  unsigned internCopy(std::vector<const char *> &Names,
                      const std::string &Name, unsigned Max) {
    std::lock_guard<std::mutex> Lock(M);
    for (unsigned I = 0; I < Names.size(); ++I)
      if (Name == Names[I])
        return I;
    assert(Names.size() < Max && "stats cell space exhausted; raise the "
                                 "MaxCounters/MaxTimers constants");
    (void)Max;
    OwnedNames.push_back(Name);
    Names.push_back(OwnedNames.back().c_str());
    return unsigned(Names.size() - 1);
  }

  /// Snapshot of the registered names (copied under the lock so readers
  /// never race a registration).
  std::vector<const char *> counterNames() {
    std::lock_guard<std::mutex> Lock(M);
    return CounterNames;
  }
  std::vector<const char *> timerNames() {
    std::lock_guard<std::mutex> Lock(M);
    return TimerNames;
  }
  std::vector<const char *> histNames() {
    std::lock_guard<std::mutex> Lock(M);
    return HistNames;
  }
};

NameRegistry &registry() {
  static NameRegistry R;
  return R;
}

} // namespace

unsigned biv::stats::registerCounter(const char *Name) {
  return registry().intern(registry().CounterNames, Name, MaxCounters);
}

unsigned biv::stats::registerTimer(const char *Name) {
  return registry().intern(registry().TimerNames, Name, MaxTimers);
}

unsigned biv::stats::registerHistogram(const char *Name) {
  return registry().intern(registry().HistNames, Name, MaxHistograms);
}

void biv::stats::bumpNamedCounter(const std::string &Name, uint64_t N) {
  unsigned Idx = registry().internCopy(registry().CounterNames, Name,
                                       MaxCounters);
  threadFrame().Counters[Idx] += N;
}

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

Frame &biv::stats::threadFrame() {
  thread_local Frame F;
  return F;
}

Frame biv::stats::captureFrame() { return threadFrame(); }

TimerCell &TimerCell::operator+=(const TimerCell &O) {
  Ns += O.Ns;
  Spans += O.Spans;
  return *this;
}

TimerCell TimerCell::operator-(const TimerCell &O) const {
  return {Ns - O.Ns, Spans - O.Spans};
}

HistCell &HistCell::operator+=(const HistCell &O) {
  Count += O.Count;
  Sum += O.Sum;
  for (unsigned B = 0; B < HistBuckets; ++B)
    Buckets[B] += O.Buckets[B];
  return *this;
}

HistCell HistCell::operator-(const HistCell &O) const {
  HistCell D;
  D.Count = Count - O.Count;
  D.Sum = Sum - O.Sum;
  for (unsigned B = 0; B < HistBuckets; ++B)
    D.Buckets[B] = Buckets[B] - O.Buckets[B];
  return D;
}

bool HistCell::isZero() const {
  if (Count != 0 || Sum != 0)
    return false;
  for (uint64_t B : Buckets)
    if (B != 0)
      return false;
  return true;
}

Frame &Frame::operator+=(const Frame &O) {
  for (unsigned I = 0; I < MaxCounters; ++I)
    Counters[I] += O.Counters[I];
  for (unsigned I = 0; I < MaxTimers; ++I)
    Timers[I] += O.Timers[I];
  for (unsigned I = 0; I < MaxHistograms; ++I)
    Hists[I] += O.Hists[I];
  return *this;
}

Frame Frame::operator-(const Frame &O) const {
  Frame D;
  for (unsigned I = 0; I < MaxCounters; ++I)
    D.Counters[I] = Counters[I] - O.Counters[I];
  for (unsigned I = 0; I < MaxTimers; ++I)
    D.Timers[I] = Timers[I] - O.Timers[I];
  for (unsigned I = 0; I < MaxHistograms; ++I)
    D.Hists[I] = Hists[I] - O.Hists[I];
  return D;
}

namespace {

bool isZero(uint64_t V) { return V == 0; }
bool isZero(const TimerCell &C) { return C.isZero(); }
bool isZero(const HistCell &C) { return C.isZero(); }

/// Appends the non-zero cells of `After[I] - Before[I]` to \p Out, sized
/// exactly: the per-unit result keeps the vector for the rest of the batch.
template <typename T>
void appendNonZero(std::vector<SparseCell<T>> &Out, const T *After,
                   const T *Before, unsigned N) {
  unsigned NonZero = 0;
  for (unsigned I = 0; I < N; ++I)
    NonZero += !isZero(T(After[I] - Before[I]));
  Out.reserve(NonZero);
  for (unsigned I = 0; I < N && Out.size() < NonZero; ++I) {
    T D = After[I] - Before[I];
    if (!isZero(D))
      Out.push_back({I, D});
  }
}

} // namespace

SparseFrame biv::stats::sparseDelta(const Frame &After, const Frame &Before) {
  SparseFrame S;
  appendNonZero(S.Counters, After.Counters, Before.Counters, MaxCounters);
  appendNonZero(S.Timers, After.Timers, Before.Timers, MaxTimers);
  appendNonZero(S.Hists, After.Hists, Before.Hists, MaxHistograms);
  return S;
}

void SparseFrame::addTo(Frame &F) const {
  for (const SparseCell<uint64_t> &C : Counters)
    F.Counters[C.Idx] += C.Val;
  for (const SparseCell<TimerCell> &C : Timers)
    F.Timers[C.Idx] += C.Val;
  for (const SparseCell<HistCell> &C : Hists)
    F.Hists[C.Idx] += C.Val;
}

Frame SparseFrame::dense() const {
  Frame F;
  addTo(F);
  return F;
}

//===----------------------------------------------------------------------===//
// Snapshots
//===----------------------------------------------------------------------===//

StatsSnapshot biv::stats::snapshotFrame(const Frame &F) {
  static const Frame Zero;
  return snapshotFrame(sparseDelta(F, Zero));
}

StatsSnapshot biv::stats::snapshotFrame(const SparseFrame &F) {
  // Cells past the registered names cannot have been bumped; skip them
  // rather than index past the name tables.
  StatsSnapshot S;
  std::vector<const char *> CN = registry().counterNames();
  for (const SparseCell<uint64_t> &C : F.Counters)
    if (C.Idx < CN.size())
      S.Counters[CN[C.Idx]] = C.Val;
  std::vector<const char *> TN = registry().timerNames();
  for (const SparseCell<TimerCell> &C : F.Timers)
    if (C.Idx < TN.size())
      S.Timers[TN[C.Idx]] = {C.Val.Spans, C.Val.Ns};
  std::vector<const char *> HN = registry().histNames();
  for (const SparseCell<HistCell> &C : F.Hists)
    if (C.Idx < HN.size() && C.Val.Count != 0) {
      HistValue &H = S.Hists[HN[C.Idx]];
      H.Count = C.Val.Count;
      H.Sum = C.Val.Sum;
      H.Buckets.assign(C.Val.Buckets, C.Val.Buckets + HistBuckets);
    }
  return S;
}

uint64_t HistValue::quantileUpperBound(double Q) const {
  if (Count == 0)
    return 0;
  uint64_t Target = uint64_t(Q * double(Count));
  if (Target < 1)
    Target = 1;
  uint64_t Seen = 0;
  for (size_t B = 0; B < Buckets.size(); ++B) {
    Seen += Buckets[B];
    if (Seen >= Target)
      return B == 0 ? 0 : (uint64_t(1) << B) - 1;
  }
  return ~uint64_t(0);
}

void StatsSnapshot::merge(const StatsSnapshot &O) {
  for (const auto &[Name, V] : O.Counters)
    Counters[Name] += V;
  for (const auto &[Name, V] : O.Timers) {
    TimerValue &T = Timers[Name];
    T.Spans += V.Spans;
    T.Ns += V.Ns;
  }
  for (const auto &[Name, V] : O.Hists) {
    HistValue &H = Hists[Name];
    H.Count += V.Count;
    H.Sum += V.Sum;
    if (H.Buckets.size() < V.Buckets.size())
      H.Buckets.resize(V.Buckets.size());
    for (size_t B = 0; B < V.Buckets.size(); ++B)
      H.Buckets[B] += V.Buckets[B];
  }
}

std::string StatsSnapshot::renderTable() const {
  std::string Out;
  char Buf[192];
  Out += "=== stats ===\n";
  if (!Counters.empty())
    Out += "counters:\n";
  for (const auto &[Name, V] : Counters) {
    std::snprintf(Buf, sizeof(Buf), "  %-44s %12llu\n", Name.c_str(),
                  static_cast<unsigned long long>(V));
    Out += Buf;
  }
  if (!Timers.empty()) {
    std::snprintf(Buf, sizeof(Buf), "timers:%39s %8s %12s\n", "", "spans",
                  "ms");
    Out += Buf;
  }
  for (const auto &[Name, V] : Timers) {
    std::snprintf(Buf, sizeof(Buf), "  %-44s %8llu %12.3f\n", Name.c_str(),
                  static_cast<unsigned long long>(V.Spans),
                  double(V.Ns) / 1e6);
    Out += Buf;
  }
  if (!Hists.empty()) {
    std::snprintf(Buf, sizeof(Buf), "histograms:%31s %12s %10s %10s\n", "",
                  "count", "p50<=", "p99<=");
    Out += Buf;
  }
  for (const auto &[Name, V] : Hists) {
    std::snprintf(Buf, sizeof(Buf), "  %-42s %12llu %10llu %10llu\n",
                  Name.c_str(), static_cast<unsigned long long>(V.Count),
                  static_cast<unsigned long long>(V.quantileUpperBound(0.5)),
                  static_cast<unsigned long long>(V.quantileUpperBound(0.99)));
    Out += Buf;
  }
  return Out;
}

std::string StatsSnapshot::renderJson(const std::string &Indent) const {
  // Names are dotted identifiers (no quotes/backslashes/control bytes), so
  // no escaping is needed; std::map keeps keys sorted for a stable schema.
  std::string Out;
  char Buf[192];
  Out += Indent + "{\n";
  Out += Indent + "  \"v\": 1,\n";
  Out += Indent + "  \"counters\": {";
  bool First = true;
  for (const auto &[Name, V] : Counters) {
    std::snprintf(Buf, sizeof(Buf), "%s\n%s    \"%s\": %llu",
                  First ? "" : ",", Indent.c_str(), Name.c_str(),
                  static_cast<unsigned long long>(V));
    Out += Buf;
    First = false;
  }
  Out += std::string(First ? "" : "\n" + Indent + "  ") + "},\n";
  Out += Indent + "  \"timers\": {";
  First = true;
  for (const auto &[Name, V] : Timers) {
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n%s    \"%s\": {\"spans\": %llu, \"ns\": %llu}",
                  First ? "" : ",", Indent.c_str(), Name.c_str(),
                  static_cast<unsigned long long>(V.Spans),
                  static_cast<unsigned long long>(V.Ns));
    Out += Buf;
    First = false;
  }
  // Histograms joined after the fact (the serving path); the two-key
  // schema stays byte-identical for every run that never observes one.
  if (Hists.empty()) {
    Out += std::string(First ? "" : "\n" + Indent + "  ") + "}\n";
    Out += Indent + "}";
    return Out;
  }
  Out += std::string(First ? "" : "\n" + Indent + "  ") + "},\n";
  Out += Indent + "  \"hists\": {";
  First = true;
  for (const auto &[Name, V] : Hists) {
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n%s    \"%s\": {\"count\": %llu, \"sum\": %llu, "
                  "\"buckets\": [",
                  First ? "" : ",", Indent.c_str(), Name.c_str(),
                  static_cast<unsigned long long>(V.Count),
                  static_cast<unsigned long long>(V.Sum));
    Out += Buf;
    size_t Last = V.Buckets.size();
    while (Last > 0 && V.Buckets[Last - 1] == 0)
      --Last; // trailing zero buckets carry no information
    for (size_t B = 0; B < Last; ++B) {
      std::snprintf(Buf, sizeof(Buf), "%s%llu", B ? ", " : "",
                    static_cast<unsigned long long>(V.Buckets[B]));
      Out += Buf;
    }
    Out += "]}";
    First = false;
  }
  Out += std::string(First ? "" : "\n" + Indent + "  ") + "}\n";
  Out += Indent + "}";
  return Out;
}

std::string StatsSnapshot::fingerprint() const {
  std::string Out;
  for (const auto &[Name, V] : Counters)
    Out += "counter " + Name + " " + std::to_string(V) + "\n";
  for (const auto &[Name, V] : Timers)
    Out += "timer " + Name + " spans " + std::to_string(V.Spans) + "\n";
  // Observation counts are workload-determined; sums and bucket shapes are
  // wall-clock artifacts, so only the count participates.
  for (const auto &[Name, V] : Hists)
    Out += "hist " + Name + " count " + std::to_string(V.Count) + "\n";
  return Out;
}
