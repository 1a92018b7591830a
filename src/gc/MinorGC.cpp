//===- gc/MinorGC.cpp - nursery collection (paper Fig. 2) -----------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The minor collector copies all live nursery data to the end of the
/// old-data area, then splits the remaining free space in half and makes
/// the upper half the new nursery. Because no pointers enter the local
/// heap from outside (other than the roots), minor collections require
/// no synchronization with other vprocs.
///
/// The language is mutation-free, so pointers only refer to *older*
/// objects: old and young data can never reference the nursery, which is
/// why only the roots and the freshly-copied region need scanning.
///
//===----------------------------------------------------------------------===//

#include "gc/CollectorImpl.h"

#include "support/Logging.h"

#include <cstring>

using namespace manti;

void manti::minorGCImpl(VProcHeap &H) {
  LocalHeap &L = H.local();
  ScopedTimer Timer(H.Stats.MinorPause);

  // The size-class cache holds dormant nursery runs; this collection is
  // about to recycle the nursery, so drop them all. Keeping the flush
  // here (not in the public wrappers) covers every path that collects:
  // slow-path minors, stress collections, and both global flavors'
  // per-vproc local collections.
  H.sizeClassFlush();

  Word *const DestBase = L.oldTop();
  Word *Dest = DestBase;
  std::size_t NurseryUsed = L.nurseryUsedBytes();

  // Forwards one word: nursery objects are copied to the old-data area;
  // everything else (tagged ints, old/young/global pointers) passes
  // through. A forwarding pointer found in a nursery header may point at
  // the old area (copied earlier in this collection) or at the global
  // heap (the object was promoted); both are returned verbatim.
  auto Forward = [&](Word W) -> Word {
    if (!wordIsPtr(W))
      return W;
    Word *Obj = reinterpret_cast<Word *>(W);
    if (!L.inNursery(Obj))
      return W;
    Word Hdr = headerOf(Obj);
    if (isForwardWord(Hdr))
      return Hdr;
    uint64_t Foot = objectFootprintWords(Hdr);
    std::memcpy(Dest, Obj - 1, Foot * sizeof(Word));
    Word *NewObj = Dest + 1;
    Dest += Foot;
    headerOf(Obj) = reinterpret_cast<Word>(NewObj);
    return reinterpret_cast<Word>(NewObj);
  };

  // Store only when the word actually moved: rooted slots that hold
  // global values (e.g. a lock-free structure's head, which other vprocs
  // read while this vproc collects) must not see a same-value rewrite --
  // that plain store would race their plain reads.
  forEachVProcRoot(H, [&](Word *Slot) {
    Word W = *Slot;
    Word F = Forward(W);
    if (F != W)
      *Slot = F;
  });

  // Cheney scan of the copied region. With ScanPrefetch the next
  // object's header and this object's pointer targets (their headers,
  // one word below the object) are requested ahead of use: the scan is
  // memory-latency-bound on heaps bigger than cache, and the Forward
  // pass touches exactly those lines a few dozen cycles later.
  const ObjectDescriptorTable &Descs = H.world().descriptors();
  const bool Prefetch = H.world().config().ScanPrefetch;
  for (Word *Scan = DestBase; Scan < Dest;) {
    Word Hdr = *Scan;
    MANTI_CHECK(isHeaderWord(Hdr), "corrupt header in minor-GC scan");
    uint64_t Foot = objectFootprintWords(Hdr);
    if (Prefetch) {
      MANTI_PREFETCH(Scan + Foot);
      forEachPtrField(Scan + 1, Hdr, Descs, [&](Word *Slot) {
        Word W = *Slot;
        if (wordIsPtr(W))
          MANTI_PREFETCH(reinterpret_cast<Word *>(W) - 1);
      });
    }
    forEachPtrField(Scan + 1, Hdr, Descs,
                    [&](Word *Slot) { *Slot = Forward(*Slot); });
    Scan += Foot;
  }

  MANTI_CHECK(Dest <= L.nurseryStart(),
              "minor GC copied more data than the reserve space holds");

  std::size_t Copied = static_cast<std::size_t>(Dest - DestBase) * sizeof(Word);
  H.Stats.MinorBytesCopied += Copied;
  H.Stats.MinorBytesReclaimed += NurseryUsed - Copied;
  // Local-bank traffic: the copy reads and writes the local heap's pages.
  if (Copied)
    H.world().traffic().record(H.localHeapHomeNode(), H.node(),
                               static_cast<uint64_t>(Copied) * 2);

  // The data just copied becomes the young-data area (retained by the
  // next major collection); reclaim the nursery and resplit (Fig. 2).
  L.setRegions(/*NewYoungStart=*/DestBase, /*NewOldTop=*/Dest);
  L.resplitNursery();

  // resplitNursery restored the allocation limit; do not swallow a
  // pending rendezvous or steal signal.
  H.rearmLimitSignal();

  MANTI_DEBUG("gc", "vp%u minor: copied %zu reclaimed %zu", H.id(), Copied,
              NurseryUsed - Copied);
}
