//===- bench/gc_microbench.cpp - collector microbenchmarks ----------------===//
//
// Part of the manticore-gc project.
//
// google-benchmark measurements of the real (not simulated) collector:
// bump allocation, minor/major collection throughput, promotion cost,
// and global collection pause, plus the descriptor-driven scanning the
// paper's Section 3.2 motivates.
//
//===----------------------------------------------------------------------===//

// This bench measures the *raw* allocation paths beneath the handle
// layer, so it opts into the internal mixed allocator deliberately.
// Roots go through RootScope like everywhere else.
#define MANTI_GC_INTERNAL 1

#include "gc/Handles.h"
#include "gc/HeapInternal.h"
#include "gc/HeapVerifier.h"
#include "numa/Topology.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace manti;

namespace {

GCConfig benchConfig() {
  GCConfig Cfg;
  Cfg.LocalHeapBytes = 1024 * 1024;
  Cfg.MinNurseryBytes = 64 * 1024;
  Cfg.ChunkBytes = 256 * 1024;
  Cfg.GlobalGCBytesPerVProc = 64 * 1024 * 1024; // avoid surprise globals
  return Cfg;
}

Value makeList(VProcHeap &H, int64_t N) {
  RootScope Frame(H);
  Value &List = Frame.slot(Value::nil());
  for (int64_t I = 0; I < N; ++I) {
    // A fresh scope's first slots are contiguous: [head, tail].
    RootScope Inner(H);
    Value &Head = Inner.slot(Value::fromInt(I));
    Inner.slot(List);
    List = H.allocVector(&Head, 2);
  }
  return List;
}

} // namespace

/// Bump allocation in the nursery ("functional-language implementations
/// are notorious for their high rate of memory allocation").
static void BM_NurseryAlloc(benchmark::State &State) {
  GCWorld World(benchConfig(), Topology::singleNode(1), 1);
  VProcHeap &H = World.heap(0);
  int64_t Words = State.range(0);
  for (auto _ : State) {
    Value V = H.allocRaw(nullptr, Words * 8);
    benchmark::DoNotOptimize(V);
  }
  State.SetBytesProcessed(State.iterations() * (Words + 1) * 8);
}
BENCHMARK(BM_NurseryAlloc)->Arg(2)->Arg(8)->Arg(64);

/// Allocate a fresh live list, then minor-collect it: measures the
/// mutator-allocation plus nursery-copy cycle at a given live size.
static void BM_MinorGC(benchmark::State &State) {
  GCWorld World(benchConfig(), Topology::singleNode(1), 1);
  VProcHeap &H = World.heap(0);
  int64_t LiveCells = State.range(0);
  for (auto _ : State) {
    RootScope Frame(H);
    Value &Live = Frame.slot(makeList(H, LiveCells));
    H.minorGC();
    benchmark::DoNotOptimize(Live);
  }
  State.SetBytesProcessed(State.iterations() * LiveCells * 24);
}
BENCHMARK(BM_MinorGC)->Arg(64)->Arg(256)->Arg(2048);

/// Major collection: evacuating the old area to the global heap.
static void BM_MajorGC(benchmark::State &State) {
  GCWorld World(benchConfig(), Topology::singleNode(1), 1);
  VProcHeap &H = World.heap(0);
  int64_t Cells = State.range(0);
  for (auto _ : State) {
    State.PauseTiming();
    RootScope Frame(H);
    Value &List = Frame.slot(makeList(H, Cells));
    H.minorGC();
    H.minorGC(); // age the data into the old area
    State.ResumeTiming();
    H.majorGC();
    benchmark::DoNotOptimize(List);
  }
  State.SetBytesProcessed(State.iterations() * Cells * 24);
}
BENCHMARK(BM_MajorGC)->Arg(256)->Arg(2048)->Arg(8192);

/// Promotion: the cost of sharing an object graph (the burden the lazy
/// stealing scheme exists to avoid).
static void BM_Promotion(benchmark::State &State) {
  GCWorld World(benchConfig(), Topology::singleNode(1), 1);
  VProcHeap &H = World.heap(0);
  int64_t Cells = State.range(0);
  for (auto _ : State) {
    State.PauseTiming();
    RootScope Frame(H);
    Value &List = Frame.slot(makeList(H, Cells));
    State.ResumeTiming();
    Value P = H.promote(List);
    benchmark::DoNotOptimize(P);
  }
  State.SetBytesProcessed(State.iterations() * Cells * 24);
}
BENCHMARK(BM_Promotion)->Arg(16)->Arg(256)->Arg(4096);

/// Parallel stop-the-world global collection, single vproc (pause floor).
static void BM_GlobalGC(benchmark::State &State) {
  GCConfig Cfg = benchConfig();
  GCWorld World(Cfg, Topology::singleNode(1), 1);
  VProcHeap &H = World.heap(0);
  RootScope Frame(H);
  Value &Live = Frame.slot(makeList(H, State.range(0)));
  Live = H.promote(Live);
  for (auto _ : State) {
    World.requestGlobalGC();
    H.safePoint();
    benchmark::DoNotOptimize(Live);
  }
  State.counters["live_cells"] = static_cast<double>(State.range(0));
}
BENCHMARK(BM_GlobalGC)->Arg(256)->Arg(4096)->Arg(16384);

/// Mostly-concurrent cycle, single vproc: measures the whole-cycle cost
/// (both rendezvous plus assist-driven tracing -- with one vproc nothing
/// actually overlaps). Compare against BM_GlobalGC for the mark-sweep
/// vs copying-collection cost at the same live size; the *pause* win
/// shows up in bench_serving_kv, not here.
static void BM_ConcurrentGlobalGC(benchmark::State &State) {
  GCConfig Cfg = benchConfig();
  Cfg.ConcurrentGlobal = true;
  GCWorld World(Cfg, Topology::singleNode(1), 1);
  VProcHeap &H = World.heap(0);
  RootScope Frame(H);
  Value &Live = Frame.slot(makeList(H, State.range(0)));
  Live = H.promote(Live);
  for (auto _ : State) {
    World.startConcurrentMark();
    while (World.collectionInProgress())
      H.safePoint();
    benchmark::DoNotOptimize(Live);
  }
  State.counters["live_cells"] = static_cast<double>(State.range(0));
}
BENCHMARK(BM_ConcurrentGlobalGC)->Arg(256)->Arg(4096)->Arg(16384);

/// Descriptor-driven scanning: allocate a chain of mixed objects and
/// minor-collect it, exercising the per-type generated scanners
/// (Section 3.2) on every copy.
static void BM_MixedObjectScan(benchmark::State &State) {
  GCWorld World(benchConfig(), Topology::singleNode(1), 1);
  uint16_t Id = World.descriptors().registerMixed("bench-node", 4, {0, 1});
  VProcHeap &H = World.heap(0);
  int64_t Chain = State.range(0);
  for (auto _ : State) {
    RootScope Frame(H);
    Value &Root = Frame.slot(Value::nil());
    for (int64_t I = 0; I < Chain; ++I) {
      Word Fields[4] = {Root.bits(), Root.bits(), 7, 9};
      Value *Slots[2] = {&Root, &Root};
      Root = gcinternal::allocMixedRooted(H, Id, Fields, Slots);
    }
    H.minorGC();
    benchmark::DoNotOptimize(Root);
  }
  State.SetItemsProcessed(State.iterations() * Chain);
}
BENCHMARK(BM_MixedObjectScan)->Arg(512)->Arg(4096);

/// Small-vector allocation through the size-class cache: after the
/// first refill, every allocation of the same class is a freelist pop.
static void BM_VectorAlloc(benchmark::State &State) {
  GCWorld World(benchConfig(), Topology::singleNode(1), 1);
  VProcHeap &H = World.heap(0);
  std::size_t N = static_cast<std::size_t>(State.range(0));
  // Tagged ints never move, so the element array needs no root.
  Value Elems[16] = {};
  for (std::size_t I = 0; I < N; ++I)
    Elems[I] = Value::fromInt(static_cast<int64_t>(I));
  for (auto _ : State) {
    Value V = H.allocVector(Elems, N);
    benchmark::DoNotOptimize(V);
  }
  State.SetBytesProcessed(State.iterations() * (N + 1) * 8);
  GCStats S = World.aggregateStats();
  State.counters["hit_rate"] =
      static_cast<double>(S.SizeClassHits) /
      static_cast<double>(S.SizeClassHits + S.SizeClassMisses);
}
BENCHMARK(BM_VectorAlloc)->Arg(2)->Arg(8);

/// Handle-layer root registration: one RootScope with N rooted slots,
/// opened and torn down per iteration. This is the fixed overhead every
/// handle-using operation pays before touching the heap (the
/// lock-free-structure ops in src/structures/ open one per retry loop).
static void BM_RootScopeRegister(benchmark::State &State) {
  GCWorld World(benchConfig(), Topology::singleNode(1), 1);
  VProcHeap &H = World.heap(0);
  int64_t Roots = State.range(0);
  for (auto _ : State) {
    RootScope Scope(H);
    for (int64_t I = 0; I < Roots; ++I) {
      Ref<> R = Scope.root(Value::fromInt(I));
      benchmark::DoNotOptimize(R);
    }
  }
  State.SetItemsProcessed(State.iterations() * Roots);
}
BENCHMARK(BM_RootScopeRegister)->Arg(1)->Arg(4)->Arg(16);

/// Minor collection of a live list bigger than any cache level's worth
/// of hot data: the Cheney scan's prefetches are what this measures.
/// Named for the retired on/off ablation so its perf series continues.
static void BM_MinorScanPrefetchOn(benchmark::State &State) {
  GCWorld World(benchConfig(), Topology::singleNode(1), 1);
  VProcHeap &H = World.heap(0);
  int64_t LiveCells = State.range(0);
  for (auto _ : State) {
    RootScope Frame(H);
    Value &Live = Frame.slot(makeList(H, LiveCells));
    H.minorGC();
    benchmark::DoNotOptimize(Live);
  }
  State.SetBytesProcessed(State.iterations() * LiveCells * 24);
}
BENCHMARK(BM_MinorScanPrefetchOn)->Arg(2048)->Arg(8192);

/// Handle assignment through the SATB deletion barrier: overwriting a
/// rooted slot mid concurrent mark must record the dropped value. The
/// Idle/ConcMark pair prices the barrier's fast path (phase check only)
/// against its taken path (record into the SATB buffer).
static void BM_RefAssign(benchmark::State &State) {
  GCConfig Cfg = benchConfig();
  Cfg.ConcurrentGlobal = true;
  GCWorld World(Cfg, Topology::singleNode(1), 1);
  VProcHeap &H = World.heap(0);
  RootScope Scope(H);
  Ref<> A = Scope.root(makeList(H, 4));
  Ref<> B = Scope.root(makeList(H, 4));
  Ref<> Slot = Scope.root(A.value());
  const bool MidMark = State.range(0) != 0;
  if (MidMark) {
    World.startConcurrentMark();
    H.safePoint(); // join the snapshot rendezvous; marking is now live
  }
  bool Flip = false;
  for (auto _ : State) {
    Slot = Flip ? A.value() : B.value();
    Flip = !Flip;
    benchmark::DoNotOptimize(Slot);
  }
  if (MidMark)
    while (World.collectionInProgress())
      H.safePoint();
  State.SetItemsProcessed(State.iterations());
  State.counters["mid_mark"] = MidMark ? 1 : 0;
}
BENCHMARK(BM_RefAssign)->Arg(0)->Arg(1);

BENCHMARK_MAIN();
