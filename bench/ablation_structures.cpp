//===- bench/ablation_structures.cpp - lock-free sets under the collector -===//
//
// Part of the manticore-gc project.
//
// The collector's adversarial mutators as a bench: two lock-free ordered
// sets (a Harris-style linked list and a skiplist, structures/
// GcStructures.h) whose nodes are runtime heap objects, reclaimed only
// by the collector, run with mostly-concurrent marking on. Identical op
// mixes are swept over update ratio x thread count x structure on both
// recorded topologies.
//
// What the columns show: the mutator pays promotion + SATB barriers,
// and the collector's rendezvous pauses land in the op latency tail
// (p99 tracks max-pause once cycles fire). "cycles" counts the global
// collections that ran inside the timed region. "retired" is what the
// sets unlinked; "reclaimed" is the heap footprint a forced end-of-run
// *copying* collection returns -- chunk-granular, so it is floating
// garbage plus allocation slack, the memory the concurrent whole-chunk
// sweep could not recover while live nodes kept every chunk pinned.
//
// Usage: bench_ablation_structures [--quick] [--json <path>]
//                                  [--topology <name>]
//
//===----------------------------------------------------------------------===//

#include "GCBenchUtils.h"
#include "gc/GCReport.h"
#include "numa/Topology.h"
#include "service/LatencyRecorder.h"
#include "structures/GcStructures.h"

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

using namespace manti;
using namespace manti::benchutil;

namespace {

int OpsPerThread = 40000;
unsigned KeySpace = 2048;

uint64_t splitmix64(uint64_t &State) {
  State += 0x9E3779B97F4A7C15ull;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

GCConfig structuresConfig() {
  GCConfig Cfg;
  // Small nursery and a low global trigger so every row collects, even
  // at --quick volumes.
  Cfg.LocalHeapBytes = 256 * 1024;
  Cfg.GlobalGCBytesPerVProc = 64 * 1024;
  Cfg.ConcurrentGlobal = true;
  return Cfg;
}

struct RowResult {
  double Seconds = 0;
  double P99Us = 0;
  double MaxPauseUs = 0;
  double RetiredMb = 0;
  double ReclaimedMb = 0;
  double Cycles = 0;
};

/// Runs the op mix on every vproc thread: UpdatePct/2 inserts,
/// UpdatePct/2 erases, the rest membership tests, keys uniform over
/// KeySpace. Every 8th op is latency-sampled (cheap enough not to
/// perturb the mix, dense enough for a stable p99).
template <typename SetT>
double hammer(GCWorld &W, SetT &S, unsigned UpdatePct,
              std::vector<LatencyRecorder> &Recorders) {
  const auto T0 = std::chrono::steady_clock::now();
  runOnWorldThreads(W, [&S, UpdatePct, &Recorders](VProcHeap &H) {
    uint64_t Seed = 0xABCDEF12345ull + 0x1000ull * H.id();
    LatencyRecorder &Rec = Recorders[H.id()];
    for (int Op = 0; Op < OpsPerThread; ++Op) {
      const uint64_t R = splitmix64(Seed);
      const auto Key = static_cast<int64_t>(R % KeySpace);
      const unsigned Pick = static_cast<unsigned>((R >> 32) % 100);
      const bool Sample = (Op & 7) == 0;
      const auto S0 = Sample ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
      if (Pick < UpdatePct / 2)
        S.insert(H, Key);
      else if (Pick < UpdatePct)
        S.erase(H, Key);
      else
        S.contains(H, Key);
      if (Sample) {
        const auto S1 = std::chrono::steady_clock::now();
        Rec.record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(S1 - S0)
                .count()));
      }
      H.safePoint();
    }
  });
  const auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

/// Drives one forced, untimed end-of-run *copying* (STW) collection and
/// \returns the active-bytes drop: the retired garbage still occupying
/// the global heap at quiescence. The concurrent cycles that ran during
/// the hammer sweep whole chunks only, so dead nodes interleaved with
/// live ones linger as floating garbage until this compaction -- exactly
/// the gap the retired/reclaimed pair is meant to expose.
uint64_t forcedCycleReclaimedBytes(GCWorld &W) {
  auto Settle = [&W] {
    runOnWorldThreads(W, [&W](VProcHeap &H) {
      while (W.collectionInProgress()) {
        H.safePoint();
        std::this_thread::yield();
      }
    });
  };
  // A mid-run cycle may still be in flight when the hammer drains; finish
  // it first so the forced collection below is guaranteed to start.
  Settle();
  const uint64_t Before = W.chunks().activeBytes();
  W.requestGlobalGC();
  Settle();
  const uint64_t After = W.chunks().activeBytes();
  return Before > After ? Before - After : 0;
}

template <typename SetT>
RowResult runRow(const Topology &Topo, unsigned Threads, unsigned UpdatePct) {
  GCWorld W(structuresConfig(), Topo, Threads);
  structures::GcReclaimer R(Threads);
  RowResult Out;
  std::vector<LatencyRecorder> Recorders(Threads);
  {
    SetT S(W.heap(0), R);
    Out.Seconds = hammer(W, S, UpdatePct, Recorders);
    // Pause and cycle columns describe the timed region only; capture
    // them before the forced end-of-run compaction adds its own pause.
    Report Rep = buildGCReport(W);
    Out.MaxPauseUs = Rep.value("pause.max_us");
    Out.Cycles = static_cast<double>(W.globalGCCount());
    Out.ReclaimedMb =
        static_cast<double>(forcedCycleReclaimedBytes(W)) / (1024.0 * 1024.0);
  }
  LatencyRecorder Merged;
  for (const LatencyRecorder &Rec : Recorders)
    Merged.merge(Rec);
  Out.P99Us = static_cast<double>(Merged.percentileNanos(99)) / 1e3;
  Out.RetiredMb =
      static_cast<double>(R.stats().RetiredBytes) / (1024.0 * 1024.0);
  return Out;
}

/// The reclaimer column is always "runtime-gc"; it stays so the JSON
/// config names and the CI table checks keep their shape.
void emitRow(JsonReport &Json, const char *Machine, const char *Structure,
             unsigned Threads, unsigned UpdatePct, const RowResult &R) {
  const char *Reclaimer = "runtime-gc";
  const double TotalOps =
      static_cast<double>(Threads) * static_cast<double>(OpsPerThread);
  const double Mops = R.Seconds > 0 ? TotalOps / R.Seconds / 1e6 : 0;
  char Config[64];
  std::snprintf(Config, sizeof(Config), "%s/%s/t%u/u%u", Structure, Reclaimer,
                Threads, UpdatePct);
  Json.addRow(Machine, Config,
              {{"threads", static_cast<double>(Threads)},
               {"update_pct", static_cast<double>(UpdatePct)},
               {"mops", Mops},
               {"p99_us", R.P99Us},
               {"max_pause_us", R.MaxPauseUs},
               {"retired_mb", R.RetiredMb},
               {"reclaimed_mb", R.ReclaimedMb},
               {"cycles", R.Cycles}});
  std::printf("%-8s %-9s %-11s %3u %4u%% %8.3f %9.1f %10.1f %9.3f %9.3f "
              "%6.0f\n",
              Machine, Structure, Reclaimer, Threads, UpdatePct, Mops, R.P99Us,
              R.MaxPauseUs, R.RetiredMb, R.ReclaimedMb, R.Cycles);
  std::fflush(stdout);
}

} // namespace

int main(int argc, char **argv) {
  BenchOptions Opts = BenchOptions::parse(
      argc, argv, "ablation_structures",
      "Lock-free list/skiplist reclaimed by the runtime collector: "
      "throughput, op-latency tail, GC pauses, and retired-vs-reclaimed "
      "bytes.");
  JsonReport Json("ablation_structures", Opts.JsonPath);

  const bool Quick = Opts.Quick;
  // --quick runs fewer rows, not shorter ones: every row must run at
  // least one global cycle. The concurrent trigger looks only after a
  // vproc has promoted GCWorld::WatermarkStrideBytes (64 KB), and the
  // 10%-update list rows promote about 2 bytes per op, so they first
  // collect between 35000 and 50000 ops per thread; 80000 leaves
  // margin.
  OpsPerThread = Quick ? 80000 : 40000;
  KeySpace = Quick ? 512 : 2048;
  const std::vector<unsigned> ThreadCounts =
      Quick ? std::vector<unsigned>{4} : std::vector<unsigned>{2, 4, 8};
  const std::vector<unsigned> UpdateRatios =
      Quick ? std::vector<unsigned>{10, 50}
            : std::vector<unsigned>{10, 50, 90};

  std::printf("Ablation: lock-free structures reclaimed by the runtime "
              "collector%s\n",
              Quick ? " [--quick]" : "");
  std::printf("(%d ops/thread, %u-key range; concurrent marking on; "
              "latency sampled 1-in-8)\n\n",
              OpsPerThread, KeySpace);
  std::printf("%-8s %-9s %-11s %3s %5s %8s %9s %10s %9s %9s %6s\n", "machine",
              "structure", "reclaimer", "thr", "upd", "mops", "p99-us",
              "max-pause", "retired", "reclaimed", "cycles");

  struct MachineDef {
    const char *Name;
    Topology Topo;
  };
  const MachineDef Machines[2] = {
      {"amd48", Topology::amdMagnyCours48()},
      {"intel32", Topology::intelXeon32()},
  };

  for (const MachineDef &M : Machines) {
    if (!Opts.runsTopology(M.Name))
      continue;
    for (unsigned Threads : ThreadCounts) {
      for (unsigned Upd : UpdateRatios) {
        emitRow(Json, M.Name, "list", Threads, Upd,
                runRow<structures::GcList>(M.Topo, Threads, Upd));
        emitRow(Json, M.Name, "skiplist", Threads, Upd,
                runRow<structures::GcSkipList>(M.Topo, Threads, Upd));
      }
    }
    std::printf("\n");
  }
  return Json.write() ? 0 : 1;
}
