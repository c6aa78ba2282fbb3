//===- perfbench/src/Measure.cpp - Clocks, summaries, results -------------===//

#include "Measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>
#include <time.h>

namespace pb {

void Outcome::metric(const std::string &Name, double Value,
                     const std::string &Unit) {
  Metrics.push_back({Name, Value, Unit});
}

void Outcome::op(bool OK, const std::string &What) {
  ops(1, OK ? 0 : 1, What);
}

void Outcome::ops(uint64_t N, uint64_t Bad, const std::string &What) {
  Attempted += N;
  Failed += Bad;
  if (Bad != 0 && FailureNotes.size() < 8)
    FailureNotes.push_back(What);
}

static uint64_t clockNs(clockid_t Id) {
  timespec T{};
  clock_gettime(Id, &T);
  return uint64_t(T.tv_sec) * 1000000000ull + uint64_t(T.tv_nsec);
}

uint64_t wallNs() { return clockNs(CLOCK_MONOTONIC); }
uint64_t threadCpuNs() { return clockNs(CLOCK_THREAD_CPUTIME_ID); }
uint64_t processCpuNs() { return clockNs(CLOCK_PROCESS_CPUTIME_ID); }

bool resetPeakRss() {
  std::ofstream Out("/proc/self/clear_refs");
  Out << "5";
  Out.flush();
  return bool(Out);
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double tailQuantile(size_t N) {
  if (N < 11)
    return 1.0;
  // Ten samples beyond the order statistic at index N - 11.
  double Q = double(N - 11) / double(N - 1);
  return std::min(Q, 0.99);
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += std::log(X);
  return std::exp(S / double(V.size()));
}

std::string fmt(double V, int Digits) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, V);
  return Buf;
}

void row(const std::string &Label, double Value, const std::string &Unit,
         const std::string &Detail) {
  std::printf("  %-34s %14s %-9s%s%s\n", Label.c_str(), fmt(Value).c_str(),
              Unit.c_str(), Detail.empty() ? "" : "  ", Detail.c_str());
}

void dist(const std::string &Label, const std::vector<double> &Ms) {
  double Q = tailQuantile(Ms.size());
  row(Label + ".p50", median(Ms), "ms", "n=" + std::to_string(Ms.size()));
  row(Label + ".p" + fmt(Q * 100, Q >= 0.99 ? 0 : 1), quantile(Ms, Q), "ms",
      "n=" + std::to_string(Ms.size()));
}

bool writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Data;
  Out.flush();
  return bool(Out);
}

} // namespace pb
