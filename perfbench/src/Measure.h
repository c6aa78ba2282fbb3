//===- perfbench/src/Measure.h - Clocks, summaries, results -----*- C++ -*-===//
///
/// \file
/// What every workload shares: the run configuration, clocks (wall and
/// thread CPU), order statistics over raw samples, and the result the
/// harness prints.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Worker threads for the batch pool: nproc.
  unsigned Jobs = 1;
  /// Checkout root (inputs such as tests/corpus are read from here) and
  /// the run's private working directory under it.
  std::string Root;
  std::string WorkDir;
  std::string Bivc;
  std::string Self; ///< this harness, for fresh-process replays
};

/// The outcome of one run: metrics in print order plus the operation
/// tally.  A failure message is kept for the first few failures.
struct Outcome {
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> FailureNotes;

  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Counts one attempted operation, failed when \p OK is false.
  void op(bool OK, const std::string &What = std::string());
  /// Counts \p N attempted operations of which \p Bad failed.
  void ops(uint64_t N, uint64_t Bad, const std::string &What);
};

/// Monotonic wall clock in nanoseconds.
uint64_t wallNs();
/// CPU time of the calling thread in nanoseconds.
uint64_t threadCpuNs();
/// CPU time of the whole process in nanoseconds.
uint64_t processCpuNs();

/// Resets the process's peak resident set (VmHWM) to the current one;
/// false when the kernel does not allow it.
bool resetPeakRss();
/// The process's peak resident set in MB.
double peakRssMb();

/// Order statistics over raw samples (never bucketed).
double median(std::vector<double> V);
/// Linear-interpolated quantile \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);
/// The tail percentile the benchmark reports for \p N samples: p99 when at
/// least ten samples lie beyond it, else the highest quantile that leaves
/// ten beyond (and the maximum when there are fewer than eleven).
double tailQuantile(size_t N);
double geomean(const std::vector<double> &V);

/// Prints a human-readable line to stdout: `label  value unit  (detail)`.
void row(const std::string &Label, double Value, const std::string &Unit,
         const std::string &Detail = std::string());
/// Prints a timing distribution: median, tail percentile and sample count.
void dist(const std::string &Label, const std::vector<double> &Ms);
std::string fmt(double V, int Digits = 3);

/// Writes \p Data to \p Path; false on I/O failure.
bool writeFile(const std::string &Path, const std::string &Data);

} // namespace pb

#endif // PERFBENCH_MEASURE_H
