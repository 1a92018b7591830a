//===- bench/ablation_rebalance.cpp - adaptive load-balancing ablation ----===//
//
// Part of the manticore-gc project.
//
// Sweeps the push side of load balancing against its baseline:
//
//   shed     victim-initiated shedding on (RuntimeConfig::ShedThreshold
//            > 0)
//   no-shed  push side off (ShedThreshold = 0): a skewed producer
//            rebalances only at remote-steal patience
//
// on two workloads over both recorded topologies:
//
//   skewed -- one producer vproc bursts deep queues of leaf tasks while
//             every other node idles between bursts. Without shedding,
//             remote vprocs wait out k * patience empty rounds (parking
//             through the ladder the whole time) before the proximity
//             tiers let them help; shedding hands them a promoted batch
//             the moment the producer's queue crosses the threshold.
//             park-ms is the headline: shed must sit below no-shed.
//
//   phased -- a phase-imbalanced parallelFor: iterations are hinted at
//             nodes block-by-block, and each phase makes exactly one
//             node's block heavy. The heavy node's queues run deep while
//             everyone else drains and parks -- the adversarial case for
//             thief-only balancing.
//
// --quick runs the CI smoke sizing; --json <path> writes the table as
// machine-readable rows (the bench-smoke job uploads it as
// BENCH_ablation_rebalance.json).
//
//===----------------------------------------------------------------------===//

#include "GCBenchUtils.h"
#include "gc/Handles.h"
#include "runtime/Parallel.h"
#include "runtime/Runtime.h"
#include "runtime/Scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

using namespace manti;

namespace {

int Bursts = 24;          ///< skewed: bursts per run (--quick: 8)
int TasksPerBurst = 96;   ///< skewed: leaf tasks per burst
int LeafWork = 60;        ///< env traversals per leaf task
int PerBlock = 48;        ///< phased: iterations per node block (--quick: 24)
int Phases = 3;           ///< phased: heavy-block rotations
constexpr int EnvLen = 8; ///< ints per skewed leaf environment
constexpr int HeavyFactor = 24; ///< phased: heavy / light work ratio

RuntimeConfig shedConfig(unsigned NumVProcs, bool Shed) {
  RuntimeConfig Cfg;
  Cfg.GC.LocalHeapBytes = 256 * 1024;
  Cfg.GC.GlobalGCBytesPerVProc = 2 * 1024 * 1024;
  Cfg.NumVProcs = NumVProcs;
  Cfg.PinThreads = false;
  Cfg.ShedThreshold = Shed ? 24 : 0;
  return Cfg;
}

struct RunResult {
  double Seconds = 0;
  SchedStats Sched;
};

int64_t envSum(Value List) {
  int64_t Sum = 0;
  while (!List.isNil()) {
    Sum += VecRef<>::getInt(List, 0);
    List = VecRef<>::get(List, 1);
  }
  return Sum;
}

//===----------------------------------------------------------------------===//
// Workload 1: skewed producer
//===----------------------------------------------------------------------===//

struct SkewCtx {
  int Bursts;
  int TasksPerBurst;
};

void skewedLeaf(Runtime &, VProc &, Task T) {
  int64_t Sum = 0;
  for (int I = 0; I < LeafWork; ++I)
    Sum += envSum(T.Env);
  if (Sum < 0)
    std::abort(); // keep the traversals observable
  static_cast<JoinCounter *>(T.Ctx)->sub();
}

RunResult runSkewed(const Topology &Topo, unsigned NumVProcs, bool Shed) {
  Runtime RT(shedConfig(NumVProcs, Shed), Topo);
  static SkewCtx Ctx;
  Ctx = {Bursts, TasksPerBurst};
  static double Seconds;

  RT.run(
      [](Runtime &, VProc &VP, void *) {
        double Sum = 0;
        static JoinCounter Join;
        for (int B = 0; B < Ctx.Bursts; ++B) {
          // Idle gap (untimed): the rest of the fleet drains its ladder
          // and parks, so every burst measures rebalance against a
          // genuinely parked machine. The gap's own parks land in both
          // policies alike; the during-burst delta is the signal.
          std::this_thread::sleep_for(std::chrono::microseconds(400));
          auto Start = std::chrono::steady_clock::now();
          RootScope Scope(VP.heap());
          for (int I = 0; I < Ctx.TasksPerBurst; ++I) {
            Ref<> Env =
                Scope.root(benchutil::makeIntListB(VP.heap(), EnvLen));
            Join.add();
            VP.spawn({skewedLeaf, &Join, Env, 0, 0});
          }
          VP.joinWait(Join);
          Sum += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
        }
        Seconds = Sum;
      },
      nullptr);

  RunResult R;
  R.Seconds = Seconds;
  R.Sched = RT.aggregateSchedStats();
  return R;
}

//===----------------------------------------------------------------------===//
// Workload 2: phase-imbalanced parallelFor
//===----------------------------------------------------------------------===//

struct PhasedCtx {
  int Phase;
  int PerBlock;
  unsigned Nodes;
};

/// Busy-work proportional to \p Units (about 0.4 us each on a laptop
/// core; the ratio, not the absolute, is what shapes the imbalance).
void spinUnits(int Units) {
  volatile int64_t Acc = 0;
  for (int64_t I = 0; I < static_cast<int64_t>(Units) * 220; ++I)
    Acc = Acc + I;
  (void)Acc;
}

void phasedBody(Runtime &, VProc &, int64_t Lo, int64_t Hi, void *CtxP) {
  auto *Ctx = static_cast<PhasedCtx *>(CtxP);
  for (int64_t I = Lo; I < Hi; ++I) {
    unsigned Block =
        static_cast<unsigned>(I / Ctx->PerBlock) % Ctx->Nodes;
    spinUnits(Block == static_cast<unsigned>(Ctx->Phase) ? HeavyFactor
                                                         : 1);
  }
}

NodeId phasedAffinity(int64_t Lo, int64_t, void *CtxP) {
  auto *Ctx = static_cast<PhasedCtx *>(CtxP);
  return static_cast<NodeId>(
      static_cast<unsigned>(Lo / Ctx->PerBlock) % Ctx->Nodes);
}

RunResult runPhased(const Topology &Topo, unsigned NumVProcs, bool Shed) {
  Runtime RT(shedConfig(NumVProcs, Shed), Topo);
  static PhasedCtx Ctx;
  Ctx = {0, PerBlock, Topo.numNodes()};
  static double Seconds;

  RT.run(
      [](Runtime &RT2, VProc &VP, void *) {
        auto Start = std::chrono::steady_clock::now();
        int64_t Range =
            static_cast<int64_t>(Ctx.Nodes) * Ctx.PerBlock;
        for (int P = 0; P < Phases; ++P) {
          Ctx.Phase = P % static_cast<int>(Ctx.Nodes);
          parallelFor(RT2, VP, 0, Range, 4, phasedBody, &Ctx,
                      phasedAffinity);
        }
        Seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
      },
      nullptr);

  RunResult R;
  R.Seconds = Seconds;
  R.Sched = RT.aggregateSchedStats();
  return R;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

void printRow(benchutil::JsonReport &Json, const char *Machine,
              const char *Workload, bool Shed, int Ops, const RunResult &R) {
  const SchedStats &S = R.Sched;
  const char *Rebalance = Shed ? "shed" : "no-shed";
  Json.addRow(Machine, std::string(Workload) + "/" + Rebalance,
              {{"ops", static_cast<double>(Ops)},
               {"seconds", R.Seconds},
               {"us_per_op", 1e6 * R.Seconds / Ops},
               {"park_ms", static_cast<double>(S.ParkNanos) / 1e6},
               {"tasks_shed", static_cast<double>(S.TasksShed)},
               {"shed_claimed", static_cast<double>(S.ShedTasksClaimed)},
               {"tasks_stolen", static_cast<double>(S.TasksStolen)},
               {"mean_batch", S.meanStealBatch()},
               {"failed_rounds", static_cast<double>(S.FailedStealRounds)},
               {"patience_drops", static_cast<double>(S.PatienceDrops)},
               {"patience_raises", static_cast<double>(S.PatienceRaises)}});
  std::printf("%-8s %-7s %-8s %8d %8.3f %8.1f %6llu %6llu %7llu %6.2f "
              "%7llu\n",
              Machine, Workload, Rebalance, Ops, R.Seconds,
              static_cast<double>(S.ParkNanos) / 1e6,
              static_cast<unsigned long long>(S.TasksShed),
              static_cast<unsigned long long>(S.ShedTasksClaimed),
              static_cast<unsigned long long>(S.TasksStolen),
              S.meanStealBatch(),
              static_cast<unsigned long long>(S.FailedStealRounds));
}

} // namespace

int main(int argc, char **argv) {
  benchutil::BenchOptions Opts = benchutil::BenchOptions::parse(
      argc, argv, "ablation_rebalance",
      "Load-balancing ablation: victim-initiated shedding on vs off.");
  const bool Quick = Opts.Quick;
  if (Quick) {
    Bursts = 8;
    TasksPerBurst = 96;
    LeafWork = 40;
    PerBlock = 24;
    Phases = 2;
  }
  benchutil::JsonReport Json("ablation_rebalance", Opts.JsonPath);

  std::printf("Ablation: load balancing (victim-initiated shedding on "
              "vs off)%s\n",
              Quick ? " [--quick]" : "");
  std::printf("skewed: producer bursts against parked remote nodes "
              "(park-ms: shed must undercut no-shed);\n"
              "phased: phase-imbalanced parallelFor, one heavy "
              "node-block per phase\n\n");
  std::printf("%-8s %-7s %-8s %8s %8s %8s %6s %6s %7s %6s %7s\n",
              "machine", "work", "rebal", "ops", "seconds", "park-ms",
              "shed", "claim", "stolen", "avg/b", "failed");

  struct MachineDef {
    const char *Name;
    Topology Topo;
    unsigned VProcs;
  };
  // One vproc per node on the AMD machine: CI containers are heavily
  // oversubscribed, and bystander idle threads add park time
  // proportional to wall clock on both sides of every comparison --
  // pure noise. One per node keeps all eight distance tiers in play.
  const MachineDef Machines[2] = {
      {"amd48", Topology::amdMagnyCours48(), 8},
      {"intel32", Topology::intelXeon32(), 8},
  };
  const bool ShedSides[2] = {true, false};

  // Warm-up (discarded): thread creation and first-touch noise.
  (void)runSkewed(Machines[0].Topo, Machines[0].VProcs, true);

  // Median-of-5 per configuration (by park time, the headline): on a
  // shared host the OS scheduler adds large per-run jitter, and the
  // minimum would select runs where the fleet never parked at all.
  constexpr int Reps = 5;
  auto MedianOf = [&](auto Run) {
    RunResult Rs[Reps];
    for (int R = 0; R < Reps; ++R)
      Rs[R] = Run();
    std::sort(Rs, Rs + Reps, [](const RunResult &A, const RunResult &B) {
      return A.Sched.ParkNanos < B.Sched.ParkNanos;
    });
    return Rs[Reps / 2];
  };

  double ShedParkMs[2] = {0, 0}, NoShedParkMs[2] = {0, 0};
  for (int M = 0; M < 2; ++M) {
    const MachineDef &Mach = Machines[M];
    if (!Opts.runsTopology(Mach.Name))
      continue;
    for (bool Shed : ShedSides) {
      RunResult R =
          MedianOf([&] { return runSkewed(Mach.Topo, Mach.VProcs, Shed); });
      printRow(Json, Mach.Name, "skewed", Shed, Bursts * TasksPerBurst, R);
      (Shed ? ShedParkMs : NoShedParkMs)[M] =
          static_cast<double>(R.Sched.ParkNanos) / 1e6;
    }
    for (bool Shed : ShedSides) {
      int Ops = static_cast<int>(Mach.Topo.numNodes()) * PerBlock * Phases;
      printRow(Json, Mach.Name, "phased", Shed, Ops, MedianOf([&] {
                 return runPhased(Mach.Topo, Mach.VProcs, Shed);
               }));
    }
  }

  std::printf("\nHeadline (skewed, median of %d): park time with shedding "
              "vs the ShedThreshold=0\nbaseline\n",
              Reps);
  for (int M = 0; M < 2; ++M)
    std::printf("  %-8s shed %8.1f ms   no-shed %8.1f ms   (%s)\n",
                Machines[M].Name, ShedParkMs[M], NoShedParkMs[M],
                ShedParkMs[M] < NoShedParkMs[M]
                    ? "shedding reduced idle time"
                    : "no reduction on this host");

  std::printf(
      "\nWithout shedding a burst on one node reaches the others only\n"
      "after k * patience empty-handed rounds per proximity tier, every\n"
      "one of them spent deeper in the park ladder; the shed path hands\n"
      "a promoted batch to the most-starved parked node at spawn time\n"
      "and rings exactly one of its sleepers.\n");
  return Json.write() ? 0 : 1;
}
