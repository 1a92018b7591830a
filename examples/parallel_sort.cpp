//===- examples/parallel_sort.cpp - NESL-style quicksort ------------------===//
//
// Part of the manticore-gc project.
//
// The paper's Quicksort benchmark as an application: sorts integers on
// rope sequences with stolen sub-sorts promoting their partitions.
//
//===----------------------------------------------------------------------===//

#include "workloads/Quicksort.h"

#include <cstdio>

using namespace manti;
using namespace manti::workloads;

int main(int Argc, char **Argv) {
  int64_t N = Argc > 1 ? std::atoll(Argv[1]) : 200000;
  std::printf("manticore-gc parallel sort example\n");
  std::printf("==================================\n\n");

  RuntimeConfig Cfg;
  Cfg.NumVProcs = 4;
  Cfg.GC.LocalHeapBytes = 512 * 1024;
  Cfg.PinThreads = false;
  Runtime RT(Cfg, Topology::uniform(2, 2));

  struct Args {
    int64_t N;
    QuicksortResult Res;
  };
  static Args A;
  A.N = N;

  RT.run(
      [](Runtime &RT, VProc &VP, void *CtxP) {
        auto *A = static_cast<Args *>(CtxP);
        QuicksortParams P;
        P.NumElements = A->N;
        P.Cutoff = 4096;
        A->Res = runQuicksort(RT, VP, P);
      },
      &A);

  std::printf("sorted %lld integers on %u vprocs in %.3f s (%s)\n",
              static_cast<long long>(A.Res.Length), RT.numVProcs(),
              A.Res.Seconds, A.Res.Sorted ? "verified" : "FAILED");

  GCStats S = RT.world().aggregateStats();
  std::printf("\ncollector work during the sort:\n");
  std::printf("  minor collections: %llu\n",
              static_cast<unsigned long long>(S.MinorPause.count()));
  std::printf("  major collections: %llu\n",
              static_cast<unsigned long long>(S.MajorPause.count()));
  std::printf("  promotions:        %llu (stolen sub-sorts)\n",
              static_cast<unsigned long long>(S.PromoteCalls));
  std::printf("  global collections: %llu (peak live %.1f MB; copy phase: "
              "%llu minor faults, %.1f ms system time)\n",
              static_cast<unsigned long long>(RT.world().globalGCCount()),
              static_cast<double>(RT.world().peakLiveBytes()) / 1e6,
              static_cast<unsigned long long>(S.GlobalMarkMinorFaults),
              static_cast<double>(S.GlobalMarkSysNanos) / 1e6);
  SchedStats Sched = RT.aggregateSchedStats();
  std::printf("  tasks stolen:      %llu (%llu batches, %.1f%% node-local)\n",
              static_cast<unsigned long long>(Sched.TasksStolen),
              static_cast<unsigned long long>(Sched.StealBatches),
              100.0 * Sched.nodeLocalFraction());
  return A.Res.Sorted ? 0 : 1;
}
