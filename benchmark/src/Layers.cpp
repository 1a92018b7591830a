//===- benchmark/src/Layers.cpp - pair loop, counters, and summaries ------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "gc/GCStats.h"
#include "runtime/Runtime.h"
#include "runtime/SchedStats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

#include <malloc.h>
#include <sys/resource.h>

using namespace bench;
using namespace manti;

namespace {

/// At least this many pairs run even when the budget is already spent,
/// so every median has three samples per configuration.
constexpr unsigned MinPairs = 3;
constexpr unsigned MaxPairs = 64;

/// The per_layer metrics of BENCHMARK.json, in report order. A traced run
/// reports each one on every workload; a counter a workload never touches
/// (requests on a fork-join kernel) reads 0. Times that are zero on some
/// workload by construction (promotion time with no steals, per-request
/// stage latencies on fork-join) are printed as extras instead.
const Metric PerLayer[] = {
    {"runtime.sched.spawns", 0, "count"},
    {"runtime.sched.tasks_stolen", 0, "count"},
    {"runtime.sched.steal_success", 0, "ratio"},
    {"runtime.sched.idle_pct", 0, "%"},
    {"runtime.sched.park_ms", 0, "ms"},
    {"runtime.sched.tasks_shed", 0, "count"},
    {"runtime.sched.mean_wake_us", 0, "us"},
    {"runtime.sched.park_timeouts", 0, "count"},
    {"gc.minor.count", 0, "count"},
    {"gc.minor.ms", 0, "ms"},
    {"gc.major.count", 0, "count"},
    {"gc.major.ms", 0, "ms"},
    {"gc.alloc.local_mb", 0, "MB"},
    {"gc.alloc.global_mb", 0, "MB"},
    {"gc.sizeclass.hit_ratio", 0, "ratio"},
    {"gc.global.count", 0, "count"},
    {"gc.global.ms", 0, "ms"},
    {"gc.global.max_us", 0, "us"},
    {"gc.global.rendezvous_max_us", 0, "us"},
    {"gc.pause_pct", 0, "%"},
    {"gc.promote.count", 0, "count"},
    {"gc.promote.mb", 0, "MB"},
    {"numa.chunk.node_local", 0, "count"},
    {"numa.chunk.cross_node", 0, "count"},
    {"numa.chunk.fresh", 0, "count"},
    {"request.count", 0, "count"},
    {"request.achieved_rps", 0, "1/s"},
    {"service.misses", 0, "count"},
    {"workloads.input_s", 0, "s"},
    {"workloads.verify_s", 0, "s"},
    {"workloads.drain_ms", 0, "ms"},
    {"workloads.kernel_min_s", 0, "s"},
    {"bench.trace_overhead_pct", 0, "%"},
};

double ms(const DurationStat &D) {
  return static_cast<double>(D.totalNanos()) / 1e6;
}

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
}

constexpr double MiB = 1024.0 * 1024.0;

std::vector<double> kernelTimes(const std::vector<Unit> &Units, Config C) {
  std::vector<double> V;
  for (const Unit &U : Units)
    if (U.Cfg == C)
      V.push_back(U.kernelSeconds());
  return V;
}

} // namespace

double Unit::stageSeconds(const char *Name) const {
  double S = 0;
  for (const Stage &St : Stages)
    if (std::string_view(St.Name) == Name)
      S += secondsBetween(St.Start, St.End);
  return S;
}

double Unit::value(const std::string &Name) const {
  for (const Metric &M : Values)
    if (M.Name == Name)
      return M.Value;
  return 0;
}

double bench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double bench::percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  auto Rank = static_cast<std::size_t>(
      std::ceil(P / 100.0 * static_cast<double>(V.size())));
  Rank = std::clamp<std::size_t>(Rank, 1, V.size());
  std::nth_element(V.begin(), V.begin() + static_cast<long>(Rank - 1),
                   V.end());
  return V[Rank - 1];
}

double bench::medianValue(const std::vector<Unit> &Units,
                          const std::string &Name, bool Traced) {
  std::vector<double> V;
  for (const Unit &U : Units)
    if (U.Cfg == Config::Full && U.Traced == Traced)
      V.push_back(U.value(Name));
  return median(std::move(V));
}

std::vector<Unit>
bench::runPairs(const Options &O,
                const std::function<Unit(Config, unsigned, bool)> &RunUnit) {
  std::vector<Unit> Units;
  const Clock::time_point Start = Clock::now();
  double LastPair = 0;
  for (unsigned P = 0; P < MaxPairs; ++P) {
    const double Elapsed = secondsBetween(Start, Clock::now());
    if (P >= MinPairs && Elapsed + LastPair > O.Seconds)
      break;
    const Clock::time_point PairStart = Clock::now();
    for (Config C : {Config::Min, Config::Full}) {
      Units.push_back(
          RunUnit(C, P, C == Config::Full && O.Trace && P % 2 == 0));
      // Hand the unit's freed heap back to the kernel, so every unit
      // starts from the same resident set and peak RSS is the largest
      // unit's own, not an accident of what earlier units left behind.
      malloc_trim(0);
    }
    LastPair = secondsBetween(PairStart, Clock::now());
    for (std::size_t I = Units.size() - 2; I < Units.size(); ++I) {
      const Unit &U = Units[I];
      std::printf("# unit %u %s setup_s %.6f kernel_s %.6f", P,
                  U.Cfg == Config::Min ? "min " : "full", U.setupSeconds(),
                  U.kernelSeconds());
      for (const char *Name :
           {"gc.global.count", "gc.global.max_us", "p99_us", "p999_us"})
        if (U.value(Name) > 0)
          std::printf(" %s %.6g", Name, U.value(Name));
      std::printf("\n");
    }
  }
  return Units;
}

void bench::addLayerCounters(Unit &U, Runtime &RT, TraceLog *Trace) {
  const GCStats G = RT.world().aggregateStats();
  const SchedStats S = RT.aggregateSchedStats();
  const double VProcNs =
      static_cast<double>(RT.numVProcs()) * U.kernelSeconds() * 1e9;
  const double PauseNs = static_cast<double>(
      G.MinorPause.totalNanos() + G.MajorPause.totalNanos() +
      G.PromotePause.totalNanos() + G.GlobalPause.totalNanos());
  const std::vector<Metric> Counters = {
      {"runtime.sched.spawns", static_cast<double>(S.Spawns), "count"},
      {"runtime.sched.tasks_stolen", static_cast<double>(S.TasksStolen),
       "count"},
      {"runtime.sched.steal_success",
       ratio(S.StealBatches, S.StealBatches + S.FailedStealRounds), "ratio"},
      {"runtime.sched.idle_pct",
       VProcNs > 0 ? 100.0 * static_cast<double>(S.ParkNanos) / VProcNs : 0,
       "%"},
      {"runtime.sched.park_ms", static_cast<double>(S.ParkNanos) / 1e6, "ms"},
      {"runtime.sched.tasks_shed", static_cast<double>(S.TasksShed), "count"},
      {"runtime.sched.mean_wake_us", S.meanRingWakeupMicros(), "us"},
      {"runtime.sched.park_timeouts", static_cast<double>(S.ParkTimeouts),
       "count"},
      {"gc.minor.count", static_cast<double>(G.MinorPause.count()), "count"},
      {"gc.minor.ms", ms(G.MinorPause), "ms"},
      {"gc.major.count", static_cast<double>(G.MajorPause.count()), "count"},
      {"gc.major.ms", ms(G.MajorPause), "ms"},
      {"gc.alloc.local_mb", static_cast<double>(G.BytesAllocatedLocal) / MiB,
       "MB"},
      {"gc.alloc.global_mb",
       static_cast<double>(G.BytesAllocatedGlobal) / MiB, "MB"},
      {"gc.sizeclass.hit_ratio",
       ratio(G.SizeClassHits, G.SizeClassHits + G.SizeClassMisses), "ratio"},
      {"gc.global.count", static_cast<double>(RT.world().globalGCCount()),
       "count"},
      {"gc.global.ms", ms(G.GlobalPause), "ms"},
      {"gc.global.max_us", static_cast<double>(G.GlobalPause.maxNanos()) / 1e3,
       "us"},
      {"gc.global.rendezvous_max_us",
       static_cast<double>(G.GlobalRendezvousPause.maxNanos()) / 1e3, "us"},
      {"gc.pause_pct", VProcNs > 0 ? 100.0 * PauseNs / VProcNs : 0, "%"},
      {"gc.promote.count", static_cast<double>(G.PromoteCalls), "count"},
      {"gc.promote.mb", static_cast<double>(G.PromoteBytes) / MiB, "MB"},
      {"gc.promote.ms", ms(G.PromotePause), "ms"},
      {"numa.chunk.node_local", static_cast<double>(G.ChunkLocalReuses),
       "count"},
      {"numa.chunk.cross_node", static_cast<double>(G.ChunkCrossNodeSteals),
       "count"},
      {"numa.chunk.fresh", static_cast<double>(G.ChunkFreshRegistrations),
       "count"},
      {"workloads.input_s", U.stageSeconds("setup.input"), "s"},
      {"workloads.verify_s", U.stageSeconds("verify"), "s"},
      {"workloads.drain_ms", U.stageSeconds("drain") * 1e3, "ms"},
  };
  U.Values.insert(U.Values.end(), Counters.begin(), Counters.end());

  if (!Trace || U.Stages.empty())
    return;
  // Totals at the unit's boundaries: zero when its Runtime was built,
  // the final counts once its last stage ended.
  const uint64_t Begin = Trace->at(U.Stages.front().Start);
  const uint64_t End = Trace->at(U.Stages.back().End);
  for (uint64_t At : {Begin, End}) {
    const bool Final = At == End;
    auto V = [&](double X) { return Final ? X : 0.0; };
    Trace->counters("gc", At,
                    {{"minor", V(static_cast<double>(G.MinorPause.count()))},
                     {"major", V(static_cast<double>(G.MajorPause.count()))},
                     {"global",
                      V(static_cast<double>(RT.world().globalGCCount()))},
                     {"promote", V(static_cast<double>(G.PromoteCalls))}});
    Trace->counters("gc.pause_ms", At,
                    {{"minor", V(ms(G.MinorPause))},
                     {"major", V(ms(G.MajorPause))},
                     {"global", V(ms(G.GlobalPause))},
                     {"promote", V(ms(G.PromotePause))}});
    Trace->counters("sched", At,
                    {{"spawns", V(static_cast<double>(S.Spawns))},
                     {"stolen", V(static_cast<double>(S.TasksStolen))},
                     {"parks", V(static_cast<double>(S.Parks))},
                     {"shed", V(static_cast<double>(S.TasksShed))}});
  }
}

void bench::traceStages(TraceLog &Trace, const Unit &U,
                        const char *UnitName) {
  if (U.Stages.empty())
    return;
  Trace.trackName(0, "main");
  const int Parent = Trace.span(UnitName, 0, Trace.at(U.Stages.front().Start),
                                Trace.at(U.Stages.back().End));
  for (const Stage &S : U.Stages)
    Trace.span(S.Name, 0, Trace.at(S.Start), Trace.at(S.End), Parent);
}

Outcome
bench::summarize(const Options &O, const std::vector<Unit> &Units,
                 const std::function<double(const Unit &)> &OverheadOf) {
  Outcome Out;
  for (const Unit &U : Units) {
    Out.Attempted += U.Attempted;
    Out.Failed += U.Failed;
  }

  if (!O.Trace) {
    std::vector<double> Setup;
    for (const Unit &U : Units)
      if (U.Cfg == Config::Full)
        Setup.push_back(U.setupSeconds());
    // Speedup per pair -- both units ran back to back on the same inputs,
    // so host drift cancels -- then the median over pairs.
    std::vector<double> Speedups;
    for (std::size_t I = 0; I + 1 < Units.size(); I += 2) {
      const Unit &Min = Units[I], &Full = Units[I + 1];
      const double MinRate = Min.Work / Min.kernelSeconds();
      if (MinRate > 0)
        Speedups.push_back(Full.Work / Full.kernelSeconds() / MinRate);
    }
    const auto FullUnits = static_cast<double>(Setup.size());
    rusage Usage{};
    getrusage(RUSAGE_SELF, &Usage);
    Out.Reported = {
        {"setup_s", median(std::move(Setup)), "s"},
        {"peak_rss_mb", static_cast<double>(Usage.ru_maxrss) / 1024.0, "MB"},
        {"wall_s", median(kernelTimes(Units, Config::Full)), "s"},
        {"speedup", median(std::move(Speedups)), "x"},
    };
    // The median operation latency is taken per unit (a trial's
    // requests, a fork-join unit's calls), then the median over units.
    Out.Reported.push_back(
        {"p50_us", medianValue(Units, "p50_us", false), "us"});
    Out.Extra.push_back({"units", FullUnits, "count"});
    return Out;
  }

  // Traced run: layer medians over the traced Full units.
  std::vector<double> Traced, Untraced;
  for (const Unit &U : Units)
    if (U.Cfg == Config::Full)
      (U.Traced ? Traced : Untraced).push_back(OverheadOf(U));
  const double Base = median(std::move(Untraced));
  const double WithTrace = median(std::move(Traced));
  for (const Metric &M : PerLayer) {
    double V = medianValue(Units, M.Name, /*Traced=*/true);
    if (M.Name == "workloads.kernel_min_s")
      V = median(kernelTimes(Units, Config::Min));
    else if (M.Name == "bench.trace_overhead_pct")
      V = Base > 0 ? 100.0 * (WithTrace / Base - 1.0) : 0;
    Out.Reported.push_back({M.Name, V, M.Unit});
  }

  // Every other per-unit value is printed as an extra.
  auto IsReported = [&](const std::string &Name) {
    return std::any_of(Out.Reported.begin(), Out.Reported.end(),
                       [&](const Metric &R) { return R.Name == Name; });
  };
  auto First = std::find_if(Units.begin(), Units.end(), [](const Unit &U) {
    return U.Cfg == Config::Full && U.Traced;
  });
  if (First != Units.end())
    for (const Metric &M : First->Values)
      if (!IsReported(M.Name))
        Out.Extra.push_back(
            {M.Name, medianValue(Units, M.Name, /*Traced=*/true), M.Unit});
  return Out;
}
