//===- examples/quickstart.cpp - first steps with the memory system -------===//
//
// Part of the manticore-gc project.
//
// Builds a world, allocates immutable values, and walks through the
// three collection phases of the paper: minor (nursery -> old area),
// major (old area -> global heap), and the parallel global collection.
//
//===----------------------------------------------------------------------===//

#include "gc/GCReport.h"
#include "gc/Handles.h"
#include "gc/Heap.h"
#include "gc/HeapVerifier.h"
#include "numa/Topology.h"
#include "support/Stats.h"

#include <cstdio>

using namespace manti;

namespace {

/// [head | tail] cons cell. allocVectorOf roots its arguments across
/// the allocation; the result escapes the inner scope and is rooted
/// again by the caller before the next allocation.
Value cons(VProcHeap &H, Value Head, Value Tail) {
  RootScope S(H);
  Ref<> Cell = allocVectorOf(S, Head, Tail);
  return Cell.value();
}

/// Allocation-free traversal through the typed-vector face (the static
/// VecRef accessors are the handle layer's blessed raw-Value reads).
int64_t listSum(Value L) {
  int64_t Sum = 0;
  for (; !L.isNil(); L = VecRef<>::get(L, 1))
    Sum += VecRef<>::getInt(L, 0);
  return Sum;
}

void printStats(const char *When, GCWorld &World) {
  GCStats S = World.aggregateStats();
  char Buf[32];
  std::printf("--- %s ---\n", When);
  formatBytes(S.BytesAllocatedLocal, Buf, sizeof(Buf));
  std::printf("  allocated locally:   %s\n", Buf);
  std::printf("  minor collections:   %llu\n",
              static_cast<unsigned long long>(S.MinorPause.count()));
  formatBytes(S.MinorBytesCopied, Buf, sizeof(Buf));
  std::printf("  nursery data copied: %s\n", Buf);
  std::printf("  major collections:   %llu\n",
              static_cast<unsigned long long>(S.MajorPause.count()));
  formatBytes(S.MajorBytesPromoted, Buf, sizeof(Buf));
  std::printf("  promoted to global:  %s\n", Buf);
  std::printf("  global collections:  %llu\n\n",
              static_cast<unsigned long long>(World.globalGCCount()));
}

} // namespace

int main() {
  std::printf("manticore-gc quickstart\n");
  std::printf("=======================\n\n");

  // A world on the paper's Intel machine shape with one vproc. The
  // config is small so every phase triggers visibly.
  GCConfig Cfg;
  Cfg.LocalHeapBytes = 128 * 1024;
  Cfg.MinNurseryBytes = 16 * 1024;
  Cfg.ChunkBytes = 64 * 1024;
  Cfg.GlobalGCBytesPerVProc = 512 * 1024;
  GCWorld World(Cfg, Topology::intelXeon32(), 1);
  VProcHeap &H = World.heap(0);

  // Values are tagged words: 63-bit ints inline, pointers to immutable
  // heap objects otherwise. Roots are handles owned by RootScopes: a
  // collection updates the handle's slot, so it can never dangle.
  RootScope Scope(H);
  Ref<> List = Scope.root(Value::nil());
  for (int64_t I = 1; I <= 1000; ++I)
    List = cons(H, Value::fromInt(I), List);
  std::printf("built a 1000-cell list; sum = %lld (expected 500500)\n\n",
              static_cast<long long>(listSum(List)));

  // Minor collection: live nursery data moves to the old-data area.
  H.minorGC();
  std::printf("after minorGC the list lives in the young area: %s\n",
              H.local().inYoungData(List.value().asPtr()) ? "yes" : "no");
  printStats("after minor", World);

  // Major collection: old data moves to this vproc's global-heap chunk;
  // the young data (just copied, provably live) stays local.
  H.minorGC(); // age the list out of the young area
  H.majorGC();
  std::printf("after majorGC the list lives in the global heap: %s\n",
              World.chunks().activeChunksContain(List.value().asPtr())
                  ? "yes"
                  : "no");
  printStats("after major", World);

  // Promotion: sharing an object with other vprocs copies it to the
  // global heap explicitly; the promoted value comes back as a fresh
  // rooted handle.
  Ref<> Local = Scope.root(cons(H, Value::fromInt(7), Value::nil()));
  Ref<> Shared = promote(Scope, Local);
  std::printf("promoted cell head: %lld\n\n",
              static_cast<long long>(VecRef<>::getInt(Shared, 0)));

  // Global collection: stop-the-world, parallel across vprocs (one
  // here), per-node chunk lists, copying compaction.
  for (int I = 0; I < 40; ++I) {
    RootScope Junk(H);
    Ref<> Dead = Junk.root(Value::nil());
    for (int J = 0; J < 500; ++J)
      Dead = cons(H, Value::fromInt(J), Dead);
    promote(Junk, Dead); // global garbage
  }
  World.requestGlobalGC();
  H.safePoint();
  std::printf("list still intact after global GC: sum = %lld\n",
              static_cast<long long>(listSum(List)));
  printStats("after global", World);

  // The invariant checker walks everything reachable and verifies the
  // paper's two heap invariants.
  VerifyResult R = verifyHeap(H);
  std::printf("verifier: %llu local + %llu global reachable objects, "
              "invariants hold\n\n",
              static_cast<unsigned long long>(R.LocalObjects),
              static_cast<unsigned long long>(R.GlobalObjects));

  // Full collector report (the library's `+RTS -s`).
  std::fputs(buildGCReport(World).human().c_str(), stdout);
  return 0;
}
