//===- gc/CollectorImpl.h - internals shared by the collectors -----------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Private helpers shared by MinorGC.cpp, MajorGC.cpp, and GlobalGC.cpp:
/// object-field iteration, root enumeration, the local-to-global
/// evacuator used by major collections and promotion, and the internal
/// entry points the public VProcHeap methods drive. Not installed; do
/// not include outside src/gc.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_GC_COLLECTORIMPL_H
#define MANTI_GC_COLLECTORIMPL_H

#include "gc/Heap.h"
#include "support/Assert.h"

#include <utility>
#include <vector>

namespace manti {

/// What the local-to-global evacuator condemns.
enum class EvacuateMode {
  OldOnly,  ///< normal major collection: keep young data local
  AllLocal, ///< promotion / emergency: any reachable local object moves
};

/// Trampoline adapting a C++ callable to the C-style RootSlotVisitor /
/// FieldVisitor signature.
template <typename FnT> void fieldVisitTrampoline(Word *Slot, void *Ctx) {
  (*static_cast<FnT *>(Ctx))(Slot);
}

/// Applies \p Fn to every field slot of the object at \p Obj that may
/// hold a pointer. Slots may also hold tagged integers; \p Fn must test
/// wordIsPtr itself. Raw objects have no such slots; vector objects are
/// handled inline; mixed objects dispatch through their descriptor's
/// generated scanner (paper Section 3.2). Proxy objects are the global
/// collector's business and must not reach this helper.
template <typename FnT>
inline void forEachPtrField(Word *Obj, Word Hdr,
                            const ObjectDescriptorTable &Descs, FnT Fn) {
  uint16_t Id = headerId(Hdr);
  switch (Id) {
  case IdRaw:
    return;
  case IdVector: {
    uint64_t Len = headerLenWords(Hdr);
    for (uint64_t I = 0; I != Len; ++I)
      Fn(Obj + I);
    return;
  }
  case IdProxy:
    MANTI_UNREACHABLE("proxy objects are scanned only by the global GC");
  default:
    Descs.lookup(Id).scan(Obj, fieldVisitTrampoline<FnT>, &Fn);
    return;
  }
}

/// Applies \p Fn to every root slot of vproc \p H: the shadow stack, the
/// payload slots of this vproc's unresolved proxies, and whatever extra
/// roots the runtime registered (scheduler queues, mailboxes).
template <typename FnT> inline void forEachVProcRoot(VProcHeap &H, FnT Fn) {
  for (Value *Slot : H.ShadowStack)
    Fn(reinterpret_cast<Word *>(Slot));
  // RootScope slot slabs: each live scope registered whole slabs rather
  // than individual slots, so enumeration walks the occupied prefix of
  // every slab here (always on the owning vproc's thread, or with the
  // world quiesced).
  for (RootSlab *Slab : H.SlabStack)
    for (unsigned I = 0; I < Slab->Count; ++I)
      Fn(reinterpret_cast<Word *>(&Slab->Slots[I]));
  // A proxy's payload (data word 1) can reference this vproc's local
  // heap; the owner treats it as a root so local collections keep the
  // referent alive and forward the slot (Section 3.1, footnote 1).
  for (Word *Proxy : H.ProxyTable)
    Fn(Proxy + 1);
  H.world().enumerateExtraVProcRoots(H.id(), fieldVisitTrampoline<FnT>, &Fn);
}

/// Copies local objects into the vproc's current global-heap chunk,
/// Cheney-scanning the copies transitively. Single-threaded: only the
/// owning vproc evacuates its local heap (minor and major collections
/// require no synchronization -- Section 3.3). Used by the major
/// collector (OldOnly), promotion and emergency evacuation (AllLocal).
class GlobalEvacuator {
public:
  GlobalEvacuator(VProcHeap &H, EvacuateMode Mode);

  /// Forwards one field/root word: if it points at a condemned local
  /// object, the object is copied to the global heap (a forwarding
  /// pointer replaces its header) and the new address is returned;
  /// anything else passes through.
  Word forwardWord(Word W);

  /// Rewrites \p Slot in place through forwardWord. The store is
  /// skipped when nothing moved: root slots holding already-global
  /// values are readable from other vprocs mid-collection (lock-free
  /// structure heads), and a same-value rewrite would race those reads.
  void visitSlot(Word *Slot) {
    Word W = *Slot;
    Word F = forwardWord(W);
    if (F != W)
      *Slot = F;
  }

  /// Scans all global copies made so far, transitively evacuating what
  /// they reference. Call once after all roots are forwarded.
  void drain();

  uint64_t bytesCopied() const { return Bytes; }

private:
  bool shouldEvacuate(const Word *Obj) const;

  VProcHeap &H;
  EvacuateMode Mode;
  /// (chunk, scan cursor) pairs covering everything this evacuation has
  /// copied; the cursor chases the chunk's AllocPtr.
  std::vector<std::pair<Chunk *, Word *>> ScanCursors;
  uint64_t Bytes = 0;
};

/// Internal collection entry points (public VProcHeap methods wrap them).
void minorGCImpl(VProcHeap &H);
void majorGCImpl(VProcHeap &H, EvacuateMode Mode);
void globalGCParticipate(VProcHeap &H);

} // namespace manti

#endif // MANTI_GC_COLLECTORIMPL_H
