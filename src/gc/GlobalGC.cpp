//===- gc/GlobalGC.cpp - parallel stop-the-world collection (paper 3.4) ---===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The global collector. Trigger: active global-heap bytes exceed the
/// threshold. The triggering vproc sets the pending flag and zeroes
/// every allocation limit; every vproc then reaches this file through
/// its next safe point and the phases proceed in lockstep:
///
///   1. Each vproc performs its minor and major collections in parallel
///      (everything live in a local heap ends up in the young area or in
///      global chunks).
///   2. A leader gathers all global chunks into per-node from-space
///      lists.
///   3. Each vproc obtains a fresh to-space chunk and scans its roots
///      and its local heap, copying reachable from-space objects.
///   4. All vprocs drain the per-node lists of unscanned to-space
///      chunks in parallel, preferring chunks homed on their own node so
///      copying traffic stays node-local, until no work remains anywhere
///      (counted-idle termination).
///   5. The leader returns the from-space chunks to the free pool
///      (preserving node affinity) and execution resumes.
///
/// Copying is racy by design -- two vprocs can reach the same from-space
/// object -- so forwarding pointers are installed with a compare-and-
/// swap; the loser rolls back its reservation when it was the last
/// allocation in its chunk and otherwise abandons the bytes.
///
//===----------------------------------------------------------------------===//

#include "gc/CollectorImpl.h"

#include "support/Logging.h"
#include "support/SpinLock.h"
#include "support/Wait.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>

#include <sys/resource.h>

namespace manti {

namespace {

/// Fill for released from-space under GCConfig::StressGC. Even, so it
/// reads as a pointer (or a forwarding header), and non-canonical, so
/// dereferencing it faults: a stale read of a moved global object fails
/// at once instead of returning the old copy's still-intact bytes.
constexpr Word StressPoisonWord = 0xdeadbeefdeadbeeeULL;

} // namespace

/// Shared state for one (or more, serially) global collections. Owned by
/// the GCWorld; reset by the leader at the start of each collection.
class GlobalCollection {
public:
  explicit GlobalCollection(GCWorld &W)
      : W(W), FromByNode(W.topology().numNodes(), nullptr),
        PendingByNode(W.topology().numNodes()) {}

  void participate(VProcHeap &H);

  // The fields and queue operations below are shared with the per-vproc
  // GlobalScanner; this class is internal to src/gc, so they are public.
  // The pending queue is one lock-free Treiber stack per node, so
  // publishing and claiming scan work never serializes the vprocs.
  void pushPending(Chunk *C) {
    PendingByNode[C->HomeNode].push(C);
    PendingCount.fetch_add(1, std::memory_order_release);
    ScanBell.ring(); // one chunk of work wants one idle scanner
  }

  /// Pops a pending chunk, preferring \p PreferNode ("the vprocs obtain
  /// chunks on a per-node basis").
  Chunk *popPending(NodeId PreferNode) {
    unsigned N = static_cast<unsigned>(PendingByNode.size());
    for (unsigned I = 0; I < N; ++I) {
      if (Chunk *C = PendingByNode[(PreferNode + I) % N].tryPop()) {
        PendingCount.fetch_sub(1, std::memory_order_release);
        return C;
      }
    }
    return nullptr;
  }

  GCWorld &W;
  std::vector<Chunk *> FromByNode;
  std::vector<ChunkStack> PendingByNode;
  std::atomic<int> PendingCount{0};
  std::atomic<unsigned> IdleCount{0};
  /// Idle scanners park here; rung by pushPending and, for all of them,
  /// by the scanner whose going idle ends the scan.
  Doorbell ScanBell;
};

GlobalCollection *createGlobalCollection(GCWorld &W) {
  return new GlobalCollection(W);
}

void GlobalCollectionDeleter::operator()(GlobalCollection *GC) const {
  delete GC;
}

namespace {

/// The calling thread's cumulative minor faults and system CPU time
/// (zero where the OS has no per-thread usage).
struct ThreadUsage {
  uint64_t MinorFaults = 0;
  uint64_t SysNanos = 0;

  static ThreadUsage now() {
    ThreadUsage U;
#if defined(RUSAGE_THREAD)
    struct rusage RU;
    if (getrusage(RUSAGE_THREAD, &RU) == 0) {
      U.MinorFaults = static_cast<uint64_t>(RU.ru_minflt);
      U.SysNanos = static_cast<uint64_t>(RU.ru_stime.tv_sec) * 1000000000u +
                   static_cast<uint64_t>(RU.ru_stime.tv_usec) * 1000u;
    }
#endif
    return U;
  }
};

/// Per-vproc scanning state for one global collection.
class GlobalScanner {
public:
  GlobalScanner(VProcHeap &H, GlobalCollection &GC) : H(H), GC(GC) {}

  /// Forwards one word: from-space global objects are copied into this
  /// vproc's to-space chunk; local (young) pointers and already-copied
  /// objects pass through.
  Word forwardGlobal(Word W) {
    if (!wordIsPtr(W))
      return W;
    Word *Obj = reinterpret_cast<Word *>(W);
    if (H.local().contains(Obj))
      return W; // young data stays in the local heap
    Chunk *Source = H.world().chunks().chunkOf(Obj);
    if (!Source->InFromSpace)
      return W; // already in to-space

    std::atomic_ref<Word> HdrRef(headerOf(Obj));
    Word Hdr = HdrRef.load(std::memory_order_acquire);
    for (;;) {
      if (isForwardWord(Hdr))
        return Hdr; // another vproc won the race
      uint64_t Foot = objectFootprintWords(Hdr);
      Chunk *Used = nullptr;
      Word *NewHdrSlot = reserve(Foot, &Used);
      // The header comes from the atomic load: another vproc reaching
      // the same object (both hold it in their roots) may be CASing it
      // right now. The body is immutable for the whole collection.
      NewHdrSlot[0] = Hdr;
      std::memcpy(NewHdrSlot + 1, Obj, (Foot - 1) * sizeof(Word));
      Word NewW = reinterpret_cast<Word>(NewHdrSlot + 1);
      if (HdrRef.compare_exchange_strong(Hdr, NewW,
                                         std::memory_order_acq_rel)) {
        H.Stats.GlobalBytesCopied += Foot * sizeof(Word);
        TrafficMatrix &T = H.world().traffic();
        T.record(Source->HomeNode, H.node(), Foot * sizeof(Word));
        T.record(H.node(), Used->HomeNode, Foot * sizeof(Word));
        // A dedicated oversized copy is shared scan work (it is not our
        // current alloc chunk and nobody else knows about it yet).
        if (Used != H.CurChunk && Used->ScanPtr < Used->AllocPtr)
          GC.pushPending(Used);
        return NewW;
      }
      // Lost the race; Hdr now holds the winner's forwarding pointer.
      // Reclaim the reservation when nothing followed it.
      if (Used->AllocPtr == NewHdrSlot + Foot)
        Used->AllocPtr = NewHdrSlot;
    }
  }

  /// Forwards one pointer slot in place. Slots inside *global* objects
  /// can be reached twice in the same collection -- once through a root
  /// walk (a proxy payload slot is visited via the owner's proxy-table
  /// roots) and once through the shared to-space scan -- so the access
  /// must be atomic. Both visitors store the same forwarding target
  /// (the copy itself is ordered by the header CAS in forwardGlobal),
  /// so relaxed ordering suffices.
  void visitSlot(Word *Slot) {
    std::atomic_ref<Word> S(*Slot);
    Word Old = S.load(std::memory_order_relaxed);
    Word New = forwardGlobal(Old);
    if (New != Old)
      S.store(New, std::memory_order_relaxed);
  }

  /// Phase 3: forward this vproc's roots and scan its local heap for
  /// pointers into from-space.
  void forwardRootsAndLocalHeap() {
    // Forward the proxy-table entries first: they reference proxy
    // objects in the global heap, and the root walk below visits the
    // proxies' payload slots, which should land in the to-space copies.
    for (Word *&Proxy : H.ProxyTable)
      Proxy = reinterpret_cast<Word *>(
          forwardGlobal(reinterpret_cast<Word>(Proxy)));
    forEachVProcRoot(H, [this](Word *Slot) { visitSlot(Slot); });

    // "...and scans the vproc's roots and local heap": after the minor
    // and major collections the local heap holds only the freshly-minted
    // young data (now the old area), which is husk-free and linearly
    // walkable.
    LocalHeap &L = H.local();
    const ObjectDescriptorTable &Descs = H.world().descriptors();
    for (Word *Scan = L.base(); Scan < L.oldTop();) {
      Word Hdr = *Scan;
      MANTI_CHECK(isHeaderWord(Hdr), "husk in local heap during global GC");
      forEachPtrField(Scan + 1, Hdr, Descs,
                      [this](Word *Slot) { visitSlot(Slot); });
      Scan += objectFootprintWords(Hdr);
    }
  }

  /// Leader only: forward the process-wide roots (join cells, channels).
  void forwardGlobalRoots() {
    auto Visit = [this](Word *Slot) { visitSlot(Slot); };
    H.world().enumerateGlobalRoots(fieldVisitTrampoline<decltype(Visit)>,
                                   &Visit);
  }

  /// Phase 4: cooperative parallel scan until no vproc has work.
  void scanLoop() {
    unsigned NumVProcs = H.world().numVProcs();
    auto HaveWork = [&] {
      return GC.PendingCount.load(std::memory_order_acquire) > 0 ||
             haveLocalWork();
    };
    auto AllIdle = [&] {
      return GC.IdleCount.load(std::memory_order_acquire) == NumVProcs;
    };
    auto WorkOrEnd = [&] { return HaveWork() || AllIdle(); };
    for (;;) {
      if (scanSome())
        continue;
      // The scanner whose going idle ends the scan wakes everyone.
      if (GC.IdleCount.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          NumVProcs)
        GC.ScanBell.ring(INT32_MAX);
      spinThenPark(spinBudget(NumVProcs), WorkOrEnd, [&](unsigned Micros) {
        uint32_t Seen = GC.ScanBell.prepare();
        if (WorkOrEnd())
          GC.ScanBell.cancel();
        else
          GC.ScanBell.park(Seen, std::chrono::microseconds(Micros));
      });
      if (!HaveWork() && AllIdle())
        return; // nobody has work and nobody can create any
      GC.IdleCount.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

private:
  Word *reserve(uint64_t Foot, Chunk **Used) {
    Chunk *Before = H.CurChunk;
    Word *P = H.globalReserve(Foot, Used);
    // When the reservation rotated our current chunk, the filled one may
    // still hold unscanned data: publish it as shared work, unless we
    // are the one scanning it right now.
    if (H.CurChunk != Before && Before && Before != ScanC &&
        Before->ScanPtr < Before->AllocPtr)
      GC.pushPending(Before);
    return P;
  }

  bool haveLocalWork() const {
    if (ScanC && ScanC->ScanPtr < ScanC->AllocPtr)
      return true;
    return H.CurChunk && H.CurChunk->ScanPtr < H.CurChunk->AllocPtr;
  }

  /// Scans a bounded batch of objects. \returns false when no work was
  /// available.
  bool scanSome() {
    if (!ScanC || ScanC->ScanPtr >= ScanC->AllocPtr) {
      ScanC = nullptr;
      if (H.CurChunk && H.CurChunk->ScanPtr < H.CurChunk->AllocPtr)
        ScanC = H.CurChunk;
      else if ((ScanC = GC.popPending(H.node())))
        ++H.Stats.GlobalChunksScanned;
      if (!ScanC)
        return false;
    }
    const ObjectDescriptorTable &Descs = H.world().descriptors();
    GCWorld &W = H.world();
    for (unsigned Budget = 64;
         Budget != 0 && ScanC->ScanPtr < ScanC->AllocPtr; --Budget) {
      Word Hdr = *ScanC->ScanPtr;
      MANTI_CHECK(isHeaderWord(Hdr), "corrupt header in to-space chunk");
      Word *Obj = ScanC->ScanPtr + 1;
      if (headerId(Hdr) == IdProxy) {
        // Proxies are the one sanctioned global-to-local reference: the
        // payload is traced only when it no longer points into the
        // owner's local heap (unresolved payloads are kept alive by the
        // owner's proxy-table roots instead). A negative owner field
        // marks a resolved proxy, whose payload is always global.
        Word Payload =
            std::atomic_ref<Word>(Obj[1]).load(std::memory_order_relaxed);
        if (wordIsPtr(Payload)) {
          int64_t OwnerOrResolved = Value::fromBits(Obj[0]).asInt();
          Word *Target = reinterpret_cast<Word *>(Payload);
          if (OwnerOrResolved < 0 ||
              !W.heap(static_cast<unsigned>(OwnerOrResolved))
                   .local()
                   .contains(Target))
            visitSlot(&Obj[1]);
        }
      } else {
        forEachPtrField(Obj, Hdr, Descs,
                        [this](Word *Slot) { visitSlot(Slot); });
      }
      ScanC->ScanPtr += objectFootprintWords(Hdr);
    }
    return true;
  }

  VProcHeap &H;
  GlobalCollection &GC;
  Chunk *ScanC = nullptr;
};

} // namespace

void GlobalCollection::participate(VProcHeap &H) {
  // Time-to-safepoint: request to arrival. A vproc that saw the phase
  // flip before the requester stamped it arrived at once (0 ns).
  int64_t Arrival = DurationStat::Clock::now().time_since_epoch().count();
  int64_t Requested = W.GlobalRequestNanos.load(std::memory_order_acquire);
  H.Stats.GlobalSafepointWait.addSample(std::chrono::nanoseconds(
      Requested == 0 ? 0 : Arrival - Requested));

  ScopedTimer Timer(H.Stats.GlobalPause);

  bool Leader;
  {
    ScopedTimer Rendezvous(H.Stats.GlobalRendezvousPause);

    // Phase 1: parallel local collections; everything live becomes young
    // data or global-heap objects (end state of Fig. 3 on every vproc).
    minorGCImpl(H);
    majorGCImpl(H, EvacuateMode::OldOnly);

    // Phase 2: leader gathers from-space once every vproc's local
    // collections are done.
    Leader = W.GCBarrier.arriveAndWait();
    if (Leader) {
      W.Chunks.gatherFromSpace(FromByNode);
      for (ChunkStack &Stack : PendingByNode)
        Stack.clear();
      PendingCount.store(0, std::memory_order_relaxed);
      IdleCount.store(0, std::memory_order_relaxed);
    }
    W.GCBarrier.arriveAndWait();
  }

  // Our current chunk now belongs to from-space.
  H.CurChunk = nullptr;

  {
    ScopedTimer Mark(H.Stats.GlobalMarkPause);
    // Two syscalls per vproc per collection attribute the copy's kernel
    // time: the to-space pages it touches first fault in here.
    ThreadUsage Before = ThreadUsage::now();
    // Phase 3 + 4: roots, local heap, then cooperative parallel scan.
    GlobalScanner Scanner(H, *this);
    Scanner.forwardRootsAndLocalHeap();
    if (Leader)
      Scanner.forwardGlobalRoots();
    Scanner.scanLoop();
    ThreadUsage After = ThreadUsage::now();
    H.Stats.GlobalMarkMinorFaults += After.MinorFaults - Before.MinorFaults;
    H.Stats.GlobalMarkSysNanos += After.SysNanos - Before.SysNanos;
  }

  // Phase 5: return from-space to the free pool and resume.
  bool Leader2 = W.GCBarrier.arriveAndWait();
  if (Leader2) {
    ScopedTimer Sweep(H.Stats.GlobalSweepPause);
    uint64_t Freed = 0;
    for (Chunk *&Head : FromByNode) {
      while (Chunk *C = Head) {
        Head = C->Next;
        Freed += C->sizeBytes();
        if (W.Config.StressGC)
          std::fill(C->Base, C->AllocPtr, StressPoisonWord);
        W.Chunks.releaseChunk(C);
      }
    }
    uint64_t Live = W.Chunks.activeBytes();
    W.noteLiveAfterCollection(Live);
    for (auto &Heap : W.Heaps)
      Heap->GlobalAllocSinceCycle.store(0, std::memory_order_relaxed);
    W.GlobalGCsCompleted.fetch_add(1, std::memory_order_relaxed);
    // Every vproc read the stamp on arrival, before the first barrier.
    W.GlobalRequestNanos.store(0, std::memory_order_relaxed);
    W.Phase.store(GCPhase::Idle, std::memory_order_release);
    // Completion rings the broadcast doorbell too: anything parked on
    // "no collection pending" (the runtime's between-runs drain wait)
    // resumes now instead of running out its park backstop.
    W.notifyWakeupHook();
    MANTI_DEBUG("gc", "global GC #%llu: freed %llu bytes, live %llu bytes",
                static_cast<unsigned long long>(W.globalGCCount()),
                static_cast<unsigned long long>(Freed),
                static_cast<unsigned long long>(Live));
  }
  W.GCBarrier.arriveAndWait();

  // Each vproc restores its own allocation limit (keeping any signal
  // still owed) and resumes.
  H.local().restoreLimit();
  H.rearmLimitSignal();
}

void globalGCParticipate(VProcHeap &H) {
  H.world().GCState->participate(H);
}

} // namespace manti
