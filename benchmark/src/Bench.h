//===- benchmark/src/Bench.h - types shared by the benchmark workloads ----===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the repository benchmark's workloads. Every workload
/// measures one *unit* of work (a fork-join kernel call, or one serving
/// trial) on a fresh Runtime, in alternating pairs: once on the smallest
/// configuration that runs it (one vproc; for the KV store one generator
/// and one shard worker) and once on all `nproc` vprocs. The pair loop,
/// stage timing, and metric aggregation live here so every workload
/// defines `wall_s`, `speedup` and the per-layer counters the same way.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_BENCH_BENCH_H
#define MANTI_BENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace manti {
class Runtime;
class Topology;
} // namespace manti

namespace bench {

class TraceLog;

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Command-line settings shared by every workload.
struct Options {
  uint64_t Seed = 1;
  /// Measuring budget: the pair loop stops starting pairs once the next
  /// one would overrun it (after a minimum of MinPairs).
  double Seconds = 25;
  /// Vprocs of the full configuration: the cpus this process may run on.
  unsigned NProc = 1;
  /// The probed host (Topology::host()); every Runtime runs on it.
  const manti::Topology *Host = nullptr;
  /// Span store of a traced run, which reports per-layer counters
  /// instead of end-to-end numbers; null when untraced.
  TraceLog *Trace = nullptr;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// The smallest configuration a workload runs on, or all `nproc` vprocs.
enum class Config { Min, Full };

/// One timed stage of a unit; also becomes a trace span.
struct Stage {
  const char *Name;
  Clock::time_point Start, End;
};

/// One unit of work on its own Runtime.
struct Unit {
  Config Cfg = Config::Full;
  bool Traced = false;
  /// Operations attempted and failed verification (reps for fork-join,
  /// scheduled requests for the KV store).
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Items the kernel processed (pixels, elements, completed requests);
  /// speedup compares items per second.
  double Work = 0;
  /// "setup.runtime", "setup.input", "kernel", "verify", "drain".
  std::vector<Stage> Stages;
  /// Per-unit numbers aggregated by median across units: the layer
  /// counters plus whatever the workload measures itself.
  std::vector<Metric> Values;

  double stageSeconds(const char *Name) const;
  double setupSeconds() const {
    return stageSeconds("setup.runtime") + stageSeconds("setup.input");
  }
  double kernelSeconds() const { return stageSeconds("kernel"); }
  /// \returns the value named \p Name, or 0 when the unit has none.
  double value(const std::string &Name) const;
};

/// Everything one workload process reports.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Metrics in BENCHMARK.json (end_to_end untraced, per_layer traced).
  std::vector<Metric> Reported;
  /// Printed, not in the result line: numbers only some workloads have.
  std::vector<Metric> Extra;
};

/// Workload entry points (ForkJoin.cpp, Serving.cpp).
Outcome runRaytrace(const Options &O);
Outcome runQuicksort(const Options &O);
Outcome runKvOpen(const Options &O);
Outcome runKvDrain(const Options &O);

/// Runs (Min, Full) pairs of \p RunUnit until the budget is spent; the
/// second argument is the pair index, and the result holds each pair's
/// Min unit followed by its Full unit. In a traced run every other pair's
/// Full unit is traced, so traced and untraced units of the same workload
/// interleave and their medians give the tracing overhead.
std::vector<Unit>
runPairs(const Options &O,
         const std::function<Unit(Config, unsigned, bool)> &RunUnit);

/// Appends the collector and scheduler counters of \p RT (read after the
/// unit's last run, so the vprocs are quiescent) to \p U.Values, and
/// emits them as trace counter events when the unit is traced.
void addLayerCounters(Unit &U, manti::Runtime &RT, TraceLog *Trace);

/// Records \p U's stages as trace spans under one parent span.
void traceStages(TraceLog &Trace, const Unit &U, const char *UnitName);

/// Assembles the reported metrics:
///   untraced: setup_s, peak_rss_mb, wall_s, speedup (the median over
///             pairs of Full items/s over Min items/s), and p50_us (the
///             median of the units' p50_us values);
///   traced:   the per-layer medians over traced Full units, the stage
///             timings, and bench.trace_overhead_pct: the median of
///             \p OverheadOf over traced vs untraced Full units.
/// Attempted/Failed are summed over every unit.
Outcome summarize(const Options &O, const std::vector<Unit> &Units,
                  const std::function<double(const Unit &)> &OverheadOf);

/// Median of the named per-unit value over the Full units that match
/// \p Traced.
double medianValue(const std::vector<Unit> &Units, const std::string &Name,
                   bool Traced);

double median(std::vector<double> V);

/// Nearest-rank percentile \p P (0..100) of \p V (reordered in place).
double percentile(std::vector<double> &V, double P);

} // namespace bench

#endif // MANTI_BENCH_BENCH_H
