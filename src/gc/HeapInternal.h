//===- gc/HeapInternal.h - raw Value-level heap surface -------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collector-internal allocation surface: the raw mixed-object
/// allocator beneath alloc<T>. Only translation units that define
/// MANTI_GC_INTERNAL may include this header -- the heap itself, the
/// handle layer (gc/Handles.cpp), collector tests, and gc_microbench.
/// Rooting has a single face everywhere, internal code included:
/// RootScope (gc/Handles.h). Everything else programs against
/// gc/Handles.h (RootScope / Ref<T> / alloc<T>), which makes the
/// rooting discipline impossible to get wrong by construction.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_GC_HEAPINTERNAL_H
#define MANTI_GC_HEAPINTERNAL_H

#ifndef MANTI_GC_INTERNAL
#error "gc/HeapInternal.h is collector-internal: define MANTI_GC_INTERNAL "    \
       "before including it, or use the public gc/Handles.h API instead"
#endif

#include "gc/Heap.h"

namespace manti {
namespace gcinternal {

/// Befriended gateway into VProcHeap's private allocation machinery.
/// Defined in Heap.cpp next to the fast paths it wraps; use the
/// free-function face below.
struct HeapAccess {
  static Value allocMixedRooted(VProcHeap &H, uint16_t Id,
                                const Word *RawFields,
                                Value *const *PtrFieldSlots);
};

/// Collection-safe mixed allocation: \p RawFields supplies every word,
/// then each descriptor pointer field is overwritten by re-reading the
/// corresponding entry of \p PtrFieldSlots (rooted Value slots, in
/// descriptor offset order) *after* the allocation, so a collection
/// triggered by the allocation cannot leave stale pointers behind.
inline Value allocMixedRooted(VProcHeap &H, uint16_t Id,
                              const Word *RawFields,
                              Value *const *PtrFieldSlots) {
  return HeapAccess::allocMixedRooted(H, Id, RawFields, PtrFieldSlots);
}

} // namespace gcinternal
} // namespace manti

#endif // MANTI_GC_HEAPINTERNAL_H
