//===- gc/MajorGC.cpp - major collection and promotion (paper Fig. 3) -----===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The major collector copies live objects from the old-data area of a
/// vproc's local heap to the vproc's dedicated chunk in the global heap.
/// To avoid premature promotion it retains the *young data* -- the data
/// copied by the immediately-preceding minor collection, guaranteed live
/// -- sliding it down to the heap base instead.
///
/// Synchronization is needed only when the current global chunk is
/// exhausted (chunk acquisition inside VProcHeap::globalReserve), which
/// is the paper's node-local/global synchronization split.
///
/// Promotion ("essentially a major collection, where the root set is a
/// pointer to the promoted object") reuses the same evacuator with the
/// AllLocal mode, as does the emergency path that empties a local heap
/// whose live data no longer leaves a usable nursery.
///
//===----------------------------------------------------------------------===//

#include "gc/CollectorImpl.h"

#include "support/Logging.h"

#include <cstring>

using namespace manti;

//===----------------------------------------------------------------------===//
// GlobalEvacuator
//===----------------------------------------------------------------------===//

GlobalEvacuator::GlobalEvacuator(VProcHeap &H, EvacuateMode Mode)
    : H(H), Mode(Mode) {
  // Start scanning at the current fill point of the vproc's chunk;
  // everything before it was copied by earlier collections and already
  // satisfies the invariants.
  if (H.CurChunk)
    ScanCursors.push_back({H.CurChunk, H.CurChunk->AllocPtr});
}

bool GlobalEvacuator::shouldEvacuate(const Word *Obj) const {
  if (Mode == EvacuateMode::OldOnly)
    return H.local().inOldData(Obj);
  return H.local().contains(Obj);
}

Word GlobalEvacuator::forwardWord(Word W) {
  if (!wordIsPtr(W))
    return W;
  Word *Obj = reinterpret_cast<Word *>(W);
  if (!shouldEvacuate(Obj))
    return W;
  Word Hdr = headerOf(Obj);
  if (isForwardWord(Hdr))
    return Hdr; // already promoted (possibly by an earlier promotion)

  uint64_t Foot = objectFootprintWords(Hdr);
  Chunk *Used = nullptr;
  Word *NewHdrSlot = H.globalReserve(Foot, &Used);
  // Start a scan cursor the first time a copy lands in a chunk this
  // evacuation has not touched yet (fresh CurChunk or oversized chunk).
  bool Covered = false;
  for (const auto &[C, Cur] : ScanCursors)
    Covered |= (C == Used);
  if (!Covered)
    ScanCursors.push_back({Used, NewHdrSlot});
  std::memcpy(NewHdrSlot, Obj - 1, Foot * sizeof(Word));
  Word *NewObj = NewHdrSlot + 1;
  headerOf(Obj) = reinterpret_cast<Word>(NewObj);
  Bytes += Foot * sizeof(Word);

  // Traffic: read from the local heap's bank, write to the used chunk's
  // bank, both through this vproc's node.
  TrafficMatrix &T = H.world().traffic();
  T.record(H.localHeapHomeNode(), H.node(), Foot * sizeof(Word));
  T.record(H.node(), Used->HomeNode, Foot * sizeof(Word));
  return reinterpret_cast<Word>(NewObj);
}

void GlobalEvacuator::drain() {
  const ObjectDescriptorTable &Descs = H.world().descriptors();
  bool Progress = true;
  while (Progress) {
    Progress = false;
    // Index-based: forwardWord may push new cursors while we scan.
    for (std::size_t I = 0; I < ScanCursors.size(); ++I) {
      for (;;) {
        Chunk *C = ScanCursors[I].first;
        Word *Cur = ScanCursors[I].second;
        if (Cur >= C->AllocPtr)
          break;
        Word Hdr = *Cur;
        MANTI_CHECK(isHeaderWord(Hdr), "corrupt header in evacuation scan");
        MANTI_CHECK(headerId(Hdr) != IdProxy,
                    "local heaps never hold proxy objects");
        uint64_t Foot = objectFootprintWords(Hdr);
        // Pull in the next copy's header and this copy's pointer
        // targets before the forwarding pass needs them: the drain walks
        // freshly-written global chunks while chasing local source
        // objects, both outside cache on real heaps.
        MANTI_PREFETCH(Cur + Foot);
        forEachPtrField(Cur + 1, Hdr, Descs, [&](Word *Slot) {
          Word W = *Slot;
          if (wordIsPtr(W))
            MANTI_PREFETCH(reinterpret_cast<Word *>(W) - 1);
        });
        forEachPtrField(Cur + 1, Hdr, Descs,
                        [&](Word *Slot) { visitSlot(Slot); });
        ScanCursors[I].second = Cur + Foot;
        Progress = true;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Major collection
//===----------------------------------------------------------------------===//

void manti::majorGCImpl(VProcHeap &H, EvacuateMode Mode) {
  LocalHeap &L = H.local();
  ScopedTimer Timer(H.Stats.MajorPause);
  const ObjectDescriptorTable &Descs = H.world().descriptors();

  Word *const Base = L.base();
  Word *const YoungStart = L.youngStart();
  Word *const OldTop = L.oldTop();

  GlobalEvacuator Evac(H, Mode);

  // Roots. In OldOnly mode, roots into the young area are left alone
  // here and repaired by the slide below.
  forEachVProcRoot(H, [&](Word *Slot) { Evac.visitSlot(Slot); });

  if (Mode == EvacuateMode::OldOnly) {
    // The young data acts as part of the root set: its fields can
    // reference old data (never the other way around -- objects only
    // point at older objects). This walk is safe because the young area
    // was produced by the immediately-preceding minor collection and so
    // contains no promotion husks.
    for (Word *Scan = YoungStart; Scan < OldTop;) {
      Word Hdr = *Scan;
      MANTI_CHECK(isHeaderWord(Hdr), "forwarded object in young area");
      forEachPtrField(Scan + 1, Hdr, Descs,
                      [&](Word *Slot) { Evac.visitSlot(Slot); });
      Scan += objectFootprintWords(Hdr);
    }
  }

  Evac.drain();
  H.Stats.MajorBytesPromoted += Evac.bytesCopied();

  if (Mode == EvacuateMode::OldOnly) {
    // Slide the young data down to the heap base (Fig. 3 "Move"),
    // rewriting young-internal pointers and roots by the displacement.
    std::ptrdiff_t YoungWords = OldTop - YoungStart;
    std::ptrdiff_t Delta = YoungStart - Base;
    if (Delta > 0 && YoungWords > 0) {
      std::memmove(Base, YoungStart, YoungWords * sizeof(Word));
      auto SlideSlot = [&](Word *Slot) {
        Word W = *Slot;
        if (!wordIsPtr(W))
          return;
        Word *Obj = reinterpret_cast<Word *>(W);
        if (Obj >= YoungStart && Obj < OldTop)
          *Slot = reinterpret_cast<Word>(Obj - Delta);
      };
      for (Word *Scan = Base; Scan < Base + YoungWords;) {
        Word Hdr = *Scan;
        MANTI_CHECK(isHeaderWord(Hdr), "corrupt header while sliding");
        forEachPtrField(Scan + 1, Hdr, Descs, SlideSlot);
        Scan += objectFootprintWords(Hdr);
      }
      forEachVProcRoot(H, SlideSlot);
      H.Stats.MajorBytesSlid +=
          static_cast<uint64_t>(YoungWords) * sizeof(Word);
      // The slide moves data within the local heap's own pages.
      H.world().traffic().record(H.localHeapHomeNode(), H.node(),
                                 static_cast<uint64_t>(YoungWords) *
                                     sizeof(Word) * 2);
    }
    // The slid young data becomes the old data; the young area is empty
    // until the next minor collection.
    L.setRegions(Base + YoungWords, Base + YoungWords);
  } else {
    // AllLocal: everything reachable left the local heap.
    L.setRegions(Base, Base);
  }

  L.resplitNursery();
  H.rearmLimitSignal();

  // The copy may have pushed the global heap over its trigger (the
  // paper: vprocs-times-32MB). Through the same check as every other
  // global allocation, so in concurrent mode data that arrives by
  // promotion starts a marking cycle at the watermark instead of only
  // ever reaching the stop-the-world backstop. Requesting is a no-op
  // while a global collection is already pending or in progress.
  H.maybeTriggerGlobalGC(Evac.bytesCopied());

  MANTI_DEBUG("gc", "vp%u major(%s): promoted %llu slid %lld words", H.id(),
              Mode == EvacuateMode::OldOnly ? "old" : "all",
              static_cast<unsigned long long>(Evac.bytesCopied()),
              static_cast<long long>(Mode == EvacuateMode::OldOnly
                                         ? OldTop - YoungStart
                                         : 0));
}
