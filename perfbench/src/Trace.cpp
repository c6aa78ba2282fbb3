//===- perfbench/src/Trace.cpp - Spans around public calls ----------------===//

#include "Trace.h"

#include "Measure.h"
#include <cstdio>
#include <fstream>

namespace pb {
namespace {
/// Open spans of the calling thread, innermost last.
thread_local std::vector<uint32_t> OpenStack;
} // namespace

uint32_t Tracer::begin(const std::string &Name, uint32_t Unit) {
  uint32_t Parent = OpenStack.empty() ? NoParent : OpenStack.back();
  uint32_t Id;
  {
    std::lock_guard<std::mutex> L(M);
    Id = uint32_t(Spans.size());
    Spans.push_back({Name, Parent, Unit, 0, 0, 0, 0});
  }
  OpenStack.push_back(Id);
  // Wall outside CPU at both ends, so a span's CPU never exceeds its wall.
  uint64_t Now = wallNs();
  uint64_t Cpu = threadCpuNs();
  std::lock_guard<std::mutex> L(M);
  Spans[Id].Start = Now;
  Spans[Id].CpuStart = Cpu;
  return Id;
}

void Tracer::end(uint32_t Id) {
  uint64_t Cpu = threadCpuNs();
  uint64_t Now = wallNs();
  OpenStack.pop_back();
  std::lock_guard<std::mutex> L(M);
  Spans[Id].End = Now;
  Spans[Id].CpuEnd = Cpu;
}

std::map<std::string, Tracer::Agg> Tracer::aggregate(bool UnitOnly) const {
  std::lock_guard<std::mutex> L(M);
  // Children of one parent run on the parent's thread, one after another,
  // so the time they cover is the sum of their durations.  A parent is
  // recorded before its children, so one forward pass marks every span
  // below a `unit` root.
  std::vector<uint64_t> ChildWall(Spans.size(), 0), ChildCpu(Spans.size(), 0);
  std::vector<bool> InUnit(Spans.size(), false);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Parent == NoParent)
      continue;
    ChildWall[S.Parent] += S.End - S.Start;
    ChildCpu[S.Parent] += S.CpuEnd - S.CpuStart;
    InUnit[I] = InUnit[S.Parent] || Spans[S.Parent].Name == "unit";
  }
  std::map<std::string, Agg> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (UnitOnly && !InUnit[I])
      continue;
    Agg &A = Out[S.Name];
    uint64_t Wall = S.End - S.Start, Cpu = S.CpuEnd - S.CpuStart;
    ++A.Count;
    A.WallNs += Wall;
    A.SelfNs += Wall > ChildWall[I] ? Wall - ChildWall[I] : 0;
    A.CpuNs += Cpu > ChildCpu[I] ? Cpu - ChildCpu[I] : 0;
  }
  return Out;
}

std::map<std::string, Tracer::Agg> Tracer::byName() const {
  return aggregate(false);
}

std::map<std::string, Tracer::Agg> Tracer::byLayer() const {
  std::map<std::string, Agg> Out;
  for (const auto &[Name, A] : aggregate(true)) {
    Agg &L = Out[Name.substr(0, Name.find('.'))];
    L.Count += A.Count;
    L.WallNs += A.WallNs;
    L.SelfNs += A.SelfNs;
    L.CpuNs += A.CpuNs;
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> L(M);
  std::ofstream Out(Path);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << "{\"id\":" << I << ",\"name\":\"" << S.Name << "\",\"parent\":"
        << (S.Parent == NoParent ? -1 : int64_t(S.Parent))
        << ",\"unit\":" << S.Unit << ",\"start_ns\":" << S.Start
        << ",\"end_ns\":" << S.End
        << ",\"cpu_ns\":" << (S.CpuEnd - S.CpuStart) << "}\n";
  }
  Out.flush();
  return bool(Out);
}

bool Tracer::load(const std::string &Path, uint32_t Unit) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::lock_guard<std::mutex> L(M);
  const uint32_t Base = uint32_t(Spans.size());
  std::string Line;
  while (std::getline(In, Line)) {
    char Name[128];
    long long Id, Parent, U;
    unsigned long long Start, End, Cpu;
    if (std::sscanf(Line.c_str(),
                    "{\"id\":%lld,\"name\":\"%127[^\"]\",\"parent\":%lld,"
                    "\"unit\":%lld,\"start_ns\":%llu,\"end_ns\":%llu,"
                    "\"cpu_ns\":%llu}",
                    &Id, Name, &Parent, &U, &Start, &End, &Cpu) != 7)
      return false;
    Spans.push_back({Name, Parent < 0 ? NoParent : Base + uint32_t(Parent),
                     Unit, Start, End, 0, Cpu});
  }
  return true;
}

} // namespace pb
