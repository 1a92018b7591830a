//===- tests/GCTestUtils.h - shared helpers for GC tests ------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small world builder plus cons-list helpers used across the GC test
/// files. Lists are built from two-element vectors [head, tail], the
/// canonical mutation-free structure, so every collector phase can be
/// checked by re-reading list contents afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_TESTS_GCTESTUTILS_H
#define MANTI_TESTS_GCTESTUTILS_H

#include "gc/Handles.h"
#include "gc/Heap.h"
#ifdef MANTI_GC_INTERNAL
#include "gc/HeapInternal.h" // raw mixed allocator for collector tests
#endif
#include "numa/Topology.h"

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace manti::test {

/// Default small configuration: every collector phase triggers quickly.
inline GCConfig smallConfig() {
  GCConfig Cfg;
  Cfg.LocalHeapBytes = 128 * 1024;
  Cfg.MinNurseryBytes = 16 * 1024;
  Cfg.ChunkBytes = 64 * 1024;
  Cfg.GlobalGCBytesPerVProc = 1024 * 1024;
  return Cfg;
}

/// Unsets an environment variable for the current scope and restores
/// its previous value on destruction. Tests that pin a config knob an
/// env override would clobber (e.g. MANTI_STRESS_GC_PERIOD) wrap the
/// world construction in one of these.
class ScopedUnsetEnv {
public:
  explicit ScopedUnsetEnv(const char *Name) : Name(Name) {
    if (const char *Old = std::getenv(Name)) {
      Saved = Old;
      HadValue = true;
    }
    unsetenv(Name);
  }
  ~ScopedUnsetEnv() {
    if (HadValue)
      setenv(Name, Saved.c_str(), 1);
  }

  ScopedUnsetEnv(const ScopedUnsetEnv &) = delete;
  ScopedUnsetEnv &operator=(const ScopedUnsetEnv &) = delete;

private:
  const char *Name;
  std::string Saved;
  bool HadValue = false;
};

/// \p Cfg with a StressGC period no test reaches, for tests whose premise
/// is phase-exact -- which collections ran, where data lives -- and that
/// the stress lane's forced minor, major and global collections would
/// break. Construct the world under a ScopedUnsetEnv for
/// MANTI_STRESS_GC_PERIOD, or that override clobbers the pinned period.
inline GCConfig phaseExactConfig(GCConfig Cfg = smallConfig()) {
  Cfg.StressGCPeriod = 1u << 20;
  return Cfg;
}

/// A world over a 2-node, 4-core uniform machine unless overridden.
struct TestWorld {
  explicit TestWorld(unsigned NumVProcs = 1, GCConfig Cfg = smallConfig(),
                     Topology Topo = Topology::uniform(2, 2))
      : World(Cfg, Topo, NumVProcs) {}

  GCWorld World;
  VProcHeap &heap(unsigned I = 0) { return World.heap(I); }
};

/// Allocates the cons cell [Head, Tail]. allocVectorOf roots both
/// elements across the allocation; the returned Value escapes the inner
/// scope and must be rooted by the caller before its next allocation.
inline Value cons(VProcHeap &H, Value Head, Value Tail) {
  RootScope S(H);
  Ref<> Cell = allocVectorOf(S, Head, Tail);
  return Cell.value();
}

/// Builds the list [N-1, ..., 1, 0] of tagged integers.
inline Value makeIntList(VProcHeap &H, int64_t N) {
  RootScope S(H);
  Ref<> List = S.root(Value::nil());
  for (int64_t I = 0; I < N; ++I)
    List = cons(H, Value::fromInt(I), List);
  return List.value();
}

inline int64_t listLength(Value List) {
  int64_t Len = 0;
  while (!List.isNil()) {
    ++Len;
    List = vectorGet(List, 1);
  }
  return Len;
}

inline int64_t listSum(Value List) {
  int64_t Sum = 0;
  while (!List.isNil()) {
    Sum += vectorGet(List, 0).asInt();
    List = vectorGet(List, 1);
  }
  return Sum;
}

/// Expected sum of makeIntList(H, N).
inline int64_t intListSum(int64_t N) { return N * (N - 1) / 2; }

/// Allocates \p Count dead cons cells (immediate garbage).
inline void allocGarbage(VProcHeap &H, int64_t Count) {
  for (int64_t I = 0; I < Count; ++I)
    cons(H, Value::fromInt(I), Value::nil());
}

/// \returns true if \p V points into \p H's local heap.
inline bool isLocalTo(VProcHeap &H, Value V) {
  return V.isPtr() && H.local().contains(V.asPtr());
}

/// \returns true if \p V points into the global heap.
inline bool isGlobal(GCWorld &W, Value V) {
  return V.isPtr() && W.chunks().activeChunksContain(V.asPtr());
}

} // namespace manti::test

#endif // MANTI_TESTS_GCTESTUTILS_H
