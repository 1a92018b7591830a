//===- bench/serving_kv.cpp - KV serving tail-latency benchmark -----------===//
//
// Part of the manticore-gc project.
//
// The serving-workload headline bench: a NUMA-sharded KV store driven by
// an open-loop Poisson arrival schedule (service/TrafficGen.h), swept
// over offered load x value size x GC configuration on both recorded
// topologies. Each row reports achieved throughput, the latency tail
// (p50/p99/p999/max, measured from *scheduled* arrival -- no coordinated
// omission), and the collector's worst single pause for the run.
//
// The point of the sweep: mean latency barely moves with GC pressure,
// but p99/p999 track the max pause almost directly once offered load
// approaches saturation -- queueing behind a pause is charged to every
// request scheduled during it. The "tight" GC config (small nursery,
// low global-GC trigger) collects often; "roomy" gives the collector
// headroom. Compare the max-pause and p99 columns between them.
//
// Offered load is expressed as a fraction of measured capacity: a
// calibration run per (machine, config, value-size) cell schedules its
// whole request set at t=0 -- a pure closed-loop drain through the same
// workers and channels -- and its achieved throughput is the capacity
// baseline. Load factor L then offers L * capacity requests/second
// (split across the generators). Loads > 1.0 are deliberately past
// saturation -- the tail there is queueing delay.
//
// Usage: bench_serving_kv [--quick] [--json <path>] [--topology <name>]
//
//===----------------------------------------------------------------------===//

#include "GCBenchUtils.h"
#include "gc/GCReport.h"
#include "runtime/Runtime.h"
#include "service/TrafficGen.h"

#include <cstdio>
#include <vector>

using namespace manti;

namespace {

struct GCConfigDef {
  const char *Name;
  std::size_t LocalHeapBytes;
  std::size_t GlobalGCBytesPerVProc;
  bool Concurrent;
};

const GCConfigDef GCConfigs[4] = {
    // Collect often: small nursery, global trigger low enough that the
    // preloaded store alone crosses it -- global collections happen even
    // in the --quick sweep. The -conc twin runs the same budget with
    // mostly-concurrent marking: the STW/concurrent ablation pair.
    {"tight", 256 * 1024, 128 * 1024, false},
    {"tight-conc", 256 * 1024, 128 * 1024, true},
    // Collector headroom: default nursery, high global trigger.
    {"roomy", 512 * 1024, 8 * 1024 * 1024, false},
    {"roomy-conc", 512 * 1024, 8 * 1024 * 1024, true},
};

RuntimeConfig makeConfig(const GCConfigDef &GC, unsigned NumVProcs) {
  RuntimeConfig Cfg;
  Cfg.GC.LocalHeapBytes = GC.LocalHeapBytes;
  Cfg.GC.GlobalGCBytesPerVProc = GC.GlobalGCBytesPerVProc;
  Cfg.GC.ConcurrentGlobal = GC.Concurrent;
  Cfg.NumVProcs = NumVProcs;
  Cfg.PinThreads = false;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Calibration: saturation throughput of the full serving pipeline
//===----------------------------------------------------------------------===//

/// Capacity baseline for one (machine, config, value-size) cell: a
/// serving run whose whole schedule lands at t=0, so the generators
/// never pace and the achieved rate is the pipeline's closed-loop drain
/// throughput -- workers, channels, store, and GC included. Raw store
/// ops would be the wrong baseline: a get is a hash probe, but a served
/// request is a channel round trip.
double calibrateCapacityRps(const Topology &Topo, const GCConfigDef &GC,
                            unsigned Workers, TrafficConfig Traffic,
                            uint64_t Requests) {
  Traffic.RequestsPerGen = Requests;
  Traffic.RatePerGen = 1e12; // inter-arrival gaps ~0: everything due at t=0
  Runtime RT(makeConfig(GC, 2 * Workers), Topo);
  ServingConfig Cfg;
  Cfg.Traffic = Traffic;
  Cfg.Workers = Workers;
  Cfg.PreloadKeys = Traffic.KeySpace;
  ServingResult R = runServing(RT, Cfg);
  return R.AchievedRps > 0 ? R.AchievedRps : 1e6;
}

//===----------------------------------------------------------------------===//
// One measured row
//===----------------------------------------------------------------------===//

void runRow(benchutil::JsonReport &Json, const char *Machine,
            const Topology &Topo, unsigned Workers, const GCConfigDef &GC,
            double LoadFactor, double CapacityRps, TrafficConfig Traffic) {
  Traffic.RatePerGen = LoadFactor * CapacityRps / Workers;

  Runtime RT(makeConfig(GC, 2 * Workers), Topo);
  ServingConfig Cfg;
  Cfg.Traffic = Traffic;
  Cfg.Workers = Workers;
  Cfg.PreloadKeys = Traffic.KeySpace;
  ServingResult R = runServing(RT, Cfg);

  Report Rep = buildGCReport(RT.world());
  const double MaxPauseUs = Rep.value("pause.max_us");
  const double GlobalGCs = static_cast<double>(RT.world().globalGCCount());
  const LatencyRecorder &L = R.Latency;
  const double P50 = L.percentileNanos(50) / 1e3;
  const double P99 = L.percentileNanos(99) / 1e3;
  const double P999 = L.percentileNanos(99.9) / 1e3;
  const double Max = L.maxNanos() / 1e3;

  char Config[64];
  std::snprintf(Config, sizeof(Config), "%s/val%u/load%.2f", GC.Name,
                Traffic.ValueBytes, LoadFactor);
  Json.addRow(Machine, Config,
              {{"workers", static_cast<double>(Workers)},
               {"value_bytes", static_cast<double>(Traffic.ValueBytes)},
               {"load_factor", LoadFactor},
               {"offered_rps", R.OfferedRps},
               {"achieved_rps", R.AchievedRps},
               {"p50_us", P50},
               {"p99_us", P99},
               {"p999_us", P999},
               {"max_us", Max},
               {"max_pause_us", MaxPauseUs},
               {"global_gcs", GlobalGCs},
               {"misses", static_cast<double>(R.Misses)},
               {"corruptions", static_cast<double>(R.Corruptions)}});
  std::printf("%-8s %-10s %5u %5.2f %9.0f %9.0f %8.0f %8.0f %8.0f %8.0f "
              "%9.1f %4.0f %7llu %7llu\n",
              Machine, GC.Name, Traffic.ValueBytes, LoadFactor, R.OfferedRps,
              R.AchievedRps, P50, P99, P999, Max, MaxPauseUs, GlobalGCs,
              static_cast<unsigned long long>(R.Misses),
              static_cast<unsigned long long>(R.Corruptions));
  std::fflush(stdout);
}

} // namespace

int main(int argc, char **argv) {
  benchutil::BenchOptions Opts = benchutil::BenchOptions::parse(
      argc, argv, "serving_kv",
      "NUMA-sharded KV serving: open-loop tail latency vs offered load, "
      "value size, and GC configuration.");
  benchutil::JsonReport Json("serving_kv", Opts.JsonPath);

  const bool Quick = Opts.Quick;
  const std::vector<double> Loads =
      Quick ? std::vector<double>{0.3, 1.25}
            : std::vector<double>{0.25, 0.6, 1.0, 1.5};
  const std::vector<uint32_t> ValueSizes =
      Quick ? std::vector<uint32_t>{256} : std::vector<uint32_t>{64, 1024};
  const uint64_t RequestsPerGen = Quick ? 500 : 3000;
  const uint64_t CalibRequestsPerGen = Quick ? 300 : 1500;

  std::printf("KV serving: open-loop tail latency "
              "(latency from scheduled arrival; us)%s\n\n",
              Quick ? " [--quick]" : "");
  std::printf("%-8s %-10s %5s %5s %9s %9s %8s %8s %8s %8s %9s %4s %7s %7s\n",
              "machine", "gc-cfg", "val", "load", "offered", "achieved",
              "p50", "p99", "p999", "max", "max-pause", "gcs", "miss",
              "corrupt");

  struct MachineDef {
    const char *Name;
    Topology Topo;
    unsigned Workers; ///< = shards = generators; vprocs = 2x
  };
  const MachineDef Machines[2] = {
      {"amd48", Topology::amdMagnyCours48(), 8},
      {"intel32", Topology::intelXeon32(), 4},
  };

  for (const MachineDef &M : Machines) {
    if (!Opts.runsTopology(M.Name))
      continue;
    for (const GCConfigDef &GC : GCConfigs) {
      for (uint32_t ValBytes : ValueSizes) {
        TrafficConfig Traffic;
        Traffic.Seed = 42;
        Traffic.RequestsPerGen = RequestsPerGen;
        Traffic.KeySpace = 1 << 13;
        Traffic.ValueBytes = ValBytes;
        const double CapacityRps = calibrateCapacityRps(
            M.Topo, GC, M.Workers, Traffic, CalibRequestsPerGen);
        for (double Load : Loads)
          runRow(Json, M.Name, M.Topo, M.Workers, GC, Load, CapacityRps,
                 Traffic);
      }
    }
    std::printf("\n");
  }

  std::printf(
      "p50 tracks per-op service time, but p99/p999 climb toward the\n"
      "max-pause column as load approaches saturation: an open-loop\n"
      "schedule keeps arriving during a collection, and every request\n"
      "scheduled inside the pause inherits its remainder as queueing\n"
      "delay. The tight GC config trades throughput headroom for more\n"
      "frequent, smaller collections -- compare its max-pause and p99\n"
      "against roomy at the same load. The -conc twins run the same\n"
      "budgets with mostly-concurrent global marking: tracing overlaps\n"
      "mutation and only the two short rendezvous count as pause, so\n"
      "their max-pause column should sit well below the STW rows'.\n");
  return Json.write() ? 0 : 1;
}
