//===- support/Stats.h - Pipeline observability registry --------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An always-on, near-zero-overhead stats layer: named counters and
/// monotonic-clock phase timers that every pipeline stage bumps
/// unconditionally, so any run of any surface (bivc, batch driver, benches,
/// fuzzer) doubles as a measurement.
///
/// Design (DESIGN.md §8):
///  - Names are registered once, process-wide, into a dense index space
///    (deduplicated by spelling; registration is mutex-guarded but happens
///    only at static-initialization / first-touch time).
///  - The hot path is a plain `thread_local` array increment -- no locks, no
///    allocation, no branches.  A scoped timer reads the steady clock twice.
///  - Aggregation is *explicit*: a worker captures its thread's `Frame` (a
///    POD array copy) as a baseline, keeps only the cells that moved since
///    as a per-unit `SparseFrame`, and the driver merges those in input
///    order.  Because merge is plain element-wise addition it is associative
///    and commutative, so the merged result is independent of worker count
///    and scheduling -- `--batch -j1` and `-j8` produce byte-identical
///    fingerprints.
///  - Wall-clock span *durations* are the one legitimately nondeterministic
///    field, so `StatsSnapshot::fingerprint()` (the determinism-check
///    rendering) covers counters and span counts but not nanoseconds.
///
/// Instrumentation must never perturb analysis results: stats are written to
/// dedicated cells and rendered only behind `--stats` / `--stats-json`;
/// report bytes never include them (the fuzz oracle's batch byte-identity
/// check would catch a violation).
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_SUPPORT_STATS_H
#define BEYONDIV_SUPPORT_STATS_H

#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace biv {
namespace stats {

/// Fixed cell-space bounds.  Registration asserts when exceeded; bump the
/// constants when adding whole new counter families.
inline constexpr unsigned MaxCounters = 192;
inline constexpr unsigned MaxTimers = 64;
inline constexpr unsigned MaxHistograms = 16;

/// Power-of-two histogram buckets: bucket 0 holds the value 0, bucket i
/// holds values in [2^(i-1), 2^i).  32 buckets cover the full useful range
/// of nanosecond latencies and queue depths.
inline constexpr unsigned HistBuckets = 32;

/// One timer cell: how many spans closed and their summed duration.
struct TimerCell {
  uint64_t Ns = 0;
  uint64_t Spans = 0;

  TimerCell &operator+=(const TimerCell &O);
  TimerCell operator-(const TimerCell &O) const;
  bool isZero() const { return Ns == 0 && Spans == 0; }
};

/// One histogram cell: observation count, value sum, and log2 buckets.
/// Distribution-valued metrics (request latency, queue depth at admission)
/// need tails, not just totals; the bucket layout keeps the cell POD and
/// the observe path a couple of arithmetic ops.
struct HistCell {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Buckets[HistBuckets] = {};

  HistCell &operator+=(const HistCell &O);
  HistCell operator-(const HistCell &O) const;
  bool isZero() const;
};

/// The calling thread's raw cells.  POD so capture is a struct copy.
struct Frame {
  uint64_t Counters[MaxCounters] = {};
  TimerCell Timers[MaxTimers] = {};
  HistCell Hists[MaxHistograms] = {};

  /// Element-wise accumulate (associative + commutative, so merge order and
  /// worker count cannot change the result).
  Frame &operator+=(const Frame &O);
  /// Element-wise delta: `after - before` isolates one unit's work.
  Frame operator-(const Frame &O) const;
};

/// One non-zero cell of a SparseFrame: its dense index and value.
template <typename T> struct SparseCell {
  uint32_t Idx;
  T Val;
};

/// The non-zero cells of a frame, in index order.  A batch unit touches a
/// few dozen of the frame's ~900 words, so per-unit results keep this form
/// and build a dense Frame only where a caller needs one.
struct SparseFrame {
  std::vector<SparseCell<uint64_t>> Counters;
  std::vector<SparseCell<TimerCell>> Timers;
  std::vector<SparseCell<HistCell>> Hists;

  /// Adds every cell into \p F: the same sums as `F += dense()`.
  void addTo(Frame &F) const;
  /// The dense frame these cells describe.
  Frame dense() const;
};

/// The non-zero cells of `After - Before`, computed cell by cell without a
/// dense temporary.  Pass threadFrame() as \p After to take the work done
/// on this thread since \p Before was captured.
SparseFrame sparseDelta(const Frame &After, const Frame &Before);

/// The calling thread's live frame.  Cells grow monotonically; consumers
/// take before/after copies and subtract.
Frame &threadFrame();

/// Copy of the calling thread's frame (allocation-free: returns the POD).
Frame captureFrame();

/// Registers (or finds) the counter named \p Name; returns its dense index.
/// \p Name must outlive the process (string literals).
unsigned registerCounter(const char *Name);

/// Registers (or finds) the timer named \p Name; returns its dense index.
unsigned registerTimer(const char *Name);

/// Registers (or finds) the histogram named \p Name; returns its dense
/// index.
unsigned registerHistogram(const char *Name);

/// Bumps the counter named \p Name (registering it, with an owned copy of
/// the name, on first touch).  This is the slow path for names that only
/// exist at run time -- the analysis cache replaying a stored unit's
/// counter deltas -- not a replacement for `static const Counter` sites.
void bumpNamedCounter(const std::string &Name, uint64_t N);

/// A named counter.  Define one `static const` per site and bump it; the
/// constructor resolves the dense index once.
class Counter {
public:
  explicit Counter(const char *Name) : Idx(registerCounter(Name)) {}
  void bump(uint64_t N = 1) const { threadFrame().Counters[Idx] += N; }
  unsigned index() const { return Idx; }

private:
  unsigned Idx;
};

/// A named histogram.  Define one `static const` per site; `observe` files
/// a value into its log2 bucket on the calling thread's frame.
class Histogram {
public:
  explicit Histogram(const char *Name) : Idx(registerHistogram(Name)) {}
  void observe(uint64_t V) const {
    HistCell &C = threadFrame().Hists[Idx];
    ++C.Count;
    C.Sum += V;
    unsigned B = unsigned(std::bit_width(V)); // 0 -> 0, [2^(i-1), 2^i) -> i
    ++C.Buckets[B < HistBuckets ? B : HistBuckets - 1];
  }
  unsigned index() const { return Idx; }

private:
  unsigned Idx;
};

/// A named phase timer; time accrues through ScopedSpan.
class Timer {
public:
  explicit Timer(const char *Name) : Idx(registerTimer(Name)) {}
  unsigned index() const { return Idx; }

private:
  unsigned Idx;
};

/// RAII span: adds the enclosed steady-clock duration (and one span count)
/// to the timer's thread-local cell.  Spans nest freely -- each level
/// accrues its own inclusive time.
class ScopedSpan {
public:
  explicit ScopedSpan(const Timer &T)
      : Idx(T.index()), Start(std::chrono::steady_clock::now()) {}
  ~ScopedSpan() {
    TimerCell &C = threadFrame().Timers[Idx];
    C.Ns += uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - Start)
                         .count());
    ++C.Spans;
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  unsigned Idx;
  std::chrono::steady_clock::time_point Start;
};

/// One timer's merged value in a snapshot.
struct TimerValue {
  uint64_t Spans = 0;
  uint64_t Ns = 0;
};

/// One histogram's merged value in a snapshot.
struct HistValue {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  std::vector<uint64_t> Buckets; ///< HistBuckets entries, log2 layout.

  /// Smallest value v with at least `Q * Count` observations <= v, read off
  /// the bucket upper bounds (so it is an over-approximation by at most 2x).
  uint64_t quantileUpperBound(double Q) const;
};

/// A named, sorted, mergeable view of one or more frames: what the CLI
/// renders and the JSON schema serializes.  Zero cells are dropped, so the
/// key set reflects what actually ran.
struct StatsSnapshot {
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, TimerValue> Timers;
  std::map<std::string, HistValue> Hists;

  /// Accumulates \p O into this snapshot (associative, like Frame::+=).
  void merge(const StatsSnapshot &O);

  /// Human-readable table (for `bivc --stats`, printed to stderr).
  std::string renderTable() const;

  /// Schema-v1 JSON: `{"v": 1, "counters": {...}, "timers": {name:
  /// {"spans": N, "ns": M}, ...}}`, keys sorted, no trailing newline
  /// variance.  A `"hists"` object (name -> {"count", "sum", "buckets"},
  /// trailing zero buckets trimmed) is appended only when at least one
  /// histogram recorded data, so runs without histograms keep the original
  /// two-key schema byte-for-byte.  \p Indent prefixes every line (so batch
  /// mode can embed per-unit snapshots).
  std::string renderJson(const std::string &Indent = "") const;

  /// Canonical deterministic rendering: counters, timer span counts, and
  /// histogram observation counts, sorted by name; durations and latency
  /// buckets excluded (they are the legitimately nondeterministic fields).
  /// Two runs of the same workload must produce byte-identical fingerprints
  /// regardless of thread count.
  std::string fingerprint() const;
};

/// Resolves \p F's cells to their registered names, dropping zero entries.
StatsSnapshot snapshotFrame(const Frame &F);
StatsSnapshot snapshotFrame(const SparseFrame &F);

} // namespace stats
} // namespace biv

#endif // BEYONDIV_SUPPORT_STATS_H
