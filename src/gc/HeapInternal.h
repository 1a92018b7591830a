//===- gc/HeapInternal.h - raw Value-level heap surface -------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collector-internal allocation surface: raw mixed-object
/// allocators and the GcFrame shadow-stack face. Only translation units
/// that define MANTI_GC_INTERNAL may include this header -- the
/// collectors themselves, the handle layer (gc/Handles.cpp), collector
/// tests, and gc_microbench. Everything else programs against
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

#include <deque>

namespace manti {
namespace gcinternal {

/// Befriended gateway into VProcHeap's private allocation machinery.
/// Static methods are defined in Heap.cpp next to the fast paths they
/// wrap; use the free-function faces below.
struct HeapAccess {
  static Value allocMixed(VProcHeap &H, uint16_t Id, const Word *Fields);
  static Value allocMixedRooted(VProcHeap &H, uint16_t Id,
                                const Word *RawFields,
                                Value *const *PtrFieldSlots);
};

/// Allocates a mixed-type object of registered type \p Id. \p Fields
/// supplies the object's SizeWords initial words verbatim. CAUTION: the
/// allocation may collect, moving any objects \p Fields points at; only
/// use this when the pointer fields are nil/ints or when no collection
/// can intervene.
inline Value allocMixed(VProcHeap &H, uint16_t Id, const Word *Fields) {
  return HeapAccess::allocMixed(H, Id, Fields);
}

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

/// Reference-only view of a rooted shadow-stack slot, returned by
/// GcFrame::root. Binds to `Value &` but refuses to decay into a plain
/// `Value`: the old `Value Xs = Frame.root(...)` silently copied the
/// root into an *unregistered* local that a collection would never
/// update, so that spelling is a compile error instead of a latent
/// use-after-move.
class RootedSlot {
public:
  /// Bind as `Value &Xs = Frame.root(...)`.
  operator Value &() const { return *Slot; }
  /// `Value Xs = Frame.root(...)` un-roots by copy; deleted.
  operator Value() const = delete;

private:
  friend class GcFrame;
  explicit RootedSlot(Value &Slot) : Slot(&Slot) {}
  Value *Slot;
};

/// RAII shadow-stack frame: the raw face of VProcHeap::ShadowStack, for
/// collectors and collector tests whose premises (phase-exact byte
/// accounting, deliberately unrooted slots) the handle layer would
/// disturb. Everything else uses RootScope (gc/Handles.h), which owns
/// its slot storage and hands out handles instead of bare references.
/// Usage:
/// \code
///   GcFrame Frame(Heap);
///   Value &Xs = Frame.root(Heap.allocVectorFill(4, Value::fromInt(0)));
///   ...                      // Xs is updated if a collection moves it
/// \endcode
class GcFrame {
public:
  explicit GcFrame(VProcHeap &Heap)
      : Heap(Heap), Mark(Heap.ShadowStack.size()) {
    // Keep push_back headroom ahead of the roots this frame will add: a
    // std::vector regrow in the middle of the allocation path (deep
    // parallelReduce recursion) is the worst place to call the system
    // allocator.
    if (MANTI_UNLIKELY(Heap.ShadowStack.capacity() < Mark + 16))
      Heap.ShadowStack.reserve(Mark + 64);
  }
  ~GcFrame() { Heap.ShadowStack.resize(Mark); }

  GcFrame(const GcFrame &) = delete;
  GcFrame &operator=(const GcFrame &) = delete;

  /// Registers \p Slot (an lvalue that outlives this frame) as a root.
  RootedSlot root(Value &Slot) {
    Heap.ShadowStack.push_back(&Slot);
    return RootedSlot(Slot);
  }

  /// Copies a temporary into frame-owned stable storage and roots it.
  /// \returns a reference-only view of the slot (bind it as Value&).
  RootedSlot root(Value &&Temp) {
    OwnedSlots.push_back(Temp);
    Heap.ShadowStack.push_back(&OwnedSlots.back());
    return RootedSlot(OwnedSlots.back());
  }

private:
  VProcHeap &Heap;
  std::size_t Mark;
  /// Deque: growth never invalidates addresses of existing elements.
  std::deque<Value> OwnedSlots;
};

} // namespace manti

#endif // MANTI_GC_HEAPINTERNAL_H
