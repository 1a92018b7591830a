//===- gc/Handles.cpp - handle layer internals ----------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

// The handle layer is the sanctioned user of the raw Value-level mixed
// allocator: alloc<T> reaches it only through this TU.
#define MANTI_GC_INTERNAL 1

#include "gc/Handles.h"

#include "gc/HeapInternal.h"

using namespace manti;

/// Cold path of RootScope::slot: the current slab is full, so chain a
/// recycled (or fresh) overflow slab and register it with the collectors
/// in one SlabStack push.
MANTI_NOINLINE void RootScope::growSlab() {
  RootSlab *Slab = Heap.SlabFreeList;
  if (Slab) {
    Heap.SlabFreeList = Slab->NextFree;
    Slab->NextFree = nullptr;
    Slab->Count = 0;
  } else {
    Slab = new RootSlab();
  }
  Heap.SlabStack.push_back(Slab);
  Cur = Slab;
}

Value manti::detail::allocMixedRooted(VProcHeap &H, uint16_t Id,
                                      const Word *RawFields,
                                      Value *const *PtrFieldSlots) {
  return gcinternal::allocMixedRooted(H, Id, RawFields, PtrFieldSlots);
}
