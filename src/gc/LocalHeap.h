//===- gc/LocalHeap.h - per-vproc Appel semi-generational heap -----------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed-size per-vproc local heap of Section 3.3, with Appel's
/// semi-generational layout (Figures 2 and 3). Addresses grow upward:
///
///   Base          YoungStart    OldTop          NurseryStart        Top
///    |  old data  | young data  |  free (gap)   |  nursery  ....    |
///                                                ^AllocPtr  ->
///
///  * New objects bump-allocate in the nursery.
///  * A minor collection copies live nursery data to OldTop (it becomes
///    the new *young data*), then splits the remaining free space in
///    half, the upper half becoming the new nursery.
///  * A major collection evacuates [Base, YoungStart) to the global heap
///    and slides the young data down to Base.
///
/// The allocation limit is an atomic so another vproc can zero it to
/// signal a pending global collection (Section 3.4 step 2): the next
/// allocation then fails its limit check and enters the GC slow path.
///
/// The paper sizes local heaps to fit the L3 cache; the default here is
/// configurable (GCConfig::LocalHeapBytes) for the same reason.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_GC_LOCALHEAP_H
#define MANTI_GC_LOCALHEAP_H

#include "gc/ObjectModel.h"

#include <atomic>
#include <cstddef>

namespace manti {

class LocalHeap {
public:
  /// Wraps \p Bytes of 8-aligned storage at \p Mem (not owned).
  LocalHeap(void *Mem, std::size_t Bytes);

  LocalHeap(const LocalHeap &) = delete;
  LocalHeap &operator=(const LocalHeap &) = delete;

  Word *base() const { return Base; }
  Word *top() const { return Top; }
  std::size_t sizeBytes() const {
    return static_cast<std::size_t>(Top - Base) * sizeof(Word);
  }

  /// Region boundaries (see file comment).
  Word *youngStart() const { return YoungStart; }
  Word *oldTop() const { return OldTop; }
  Word *nurseryStart() const { return NurseryStart; }

  /// \returns true if \p P points into this heap (data words only).
  bool contains(const Word *P) const { return P >= Base && P < Top; }
  bool inNursery(const Word *P) const {
    return P >= NurseryStart && P < Top;
  }
  bool inOldData(const Word *P) const {
    return P >= Base && P < YoungStart;
  }
  bool inYoungData(const Word *P) const {
    return P >= YoungStart && P < OldTop;
  }

  /// Bytes of nursery already consumed by allocation.
  std::size_t nurseryUsedBytes() const {
    return static_cast<std::size_t>(AllocPtr - NurseryStart) * sizeof(Word);
  }
  /// Capacity of the current nursery.
  std::size_t nurseryCapacityBytes() const {
    return static_cast<std::size_t>(Top - NurseryStart) * sizeof(Word);
  }
  /// Bytes of live-ish data (old + young areas).
  std::size_t localDataBytes() const {
    return static_cast<std::size_t>(OldTop - Base) * sizeof(Word);
  }

  /// Bump-allocates header + \p LenWords data words in the nursery.
  /// \returns the object's first data word, or null if the nursery cannot
  /// satisfy the request (caller enters the GC slow path). Null is also
  /// returned when the limit was zeroed to signal a global collection.
  Word *tryAlloc(uint16_t Id, uint64_t LenWords) {
    Word *Hdr = AllocPtr;
    Word *NewTop = Hdr + LenWords + 1;
    if (NewTop > Limit.load(std::memory_order_relaxed))
      return nullptr;
    AllocPtr = NewTop;
    Hdr[0] = makeHeader(Id, LenWords);
    return Hdr + 1;
  }

  /// Zeroes the allocation limit; the owning vproc will take the slow
  /// path on its next allocation. Called by the global-GC leader.
  void signalLimit() { Limit.store(Base, std::memory_order_release); }

  /// Restores the allocation limit to the nursery top (owner only).
  void restoreLimit() { Limit.store(Top, std::memory_order_release); }

  /// \returns true if the limit is currently zeroed (signal pending).
  bool limitSignalled() const {
    return Limit.load(std::memory_order_acquire) != Top;
  }

  Word *allocPtr() const { return AllocPtr; }

  // The collectors (MinorGC/MajorGC) adjust the region boundaries
  // directly; they are the only mutators of this state besides reset().
  void setRegions(Word *NewYoungStart, Word *NewOldTop);

  /// Recomputes the nursery as the upper half of [OldTop, Top) and resets
  /// the allocation pointer (paper Fig. 2 right-hand side).
  void resplitNursery();

  /// Empties the heap entirely (used at startup and by tests).
  void reset();

private:
  Word *Base;
  Word *Top;
  Word *YoungStart;
  Word *OldTop;
  Word *NurseryStart;
  Word *AllocPtr;
  std::atomic<Word *> Limit;
};

} // namespace manti

#endif // MANTI_GC_LOCALHEAP_H
