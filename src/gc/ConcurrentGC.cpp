//===- gc/ConcurrentGC.cpp - mostly-concurrent global marking -------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mostly-concurrent global collector (GCConfig::ConcurrentGlobal):
/// snapshot-at-the-beginning marking overlapped with mutation, bounded
/// by two short rendezvous, with a non-moving whole-chunk sweep. The
/// stop-the-world copying collector (GlobalGC.cpp) remains the
/// compacting fallback and the ablation baseline.
///
/// A cycle proceeds through the GCPhase machine (gc/Heap.h):
///
///   ConcInit -- the *initial rendezvous*. Every vproc runs its minor
///   and major collections (afterwards each local heap is a husk-free,
///   linearly-walkable young area and everything else lives in global
///   chunks), the leader stamps every active chunk with the cycle
///   number and its allocation snapshot (Chunk::beginMark) and arms the
///   deletion barrier, then each vproc pushes the *values* of its roots
///   -- shadow stack, proxy table, runtime extras, and every global
///   reference found by walking its local heap -- onto the shared gray
///   stack. Nothing is moved and no slot is rewritten. The leader marks
///   the process-wide roots, flips the phase to ConcMark, and asks the
///   runtime to spawn marker tasks.
///
///   ConcMark -- tracing runs *concurrently with mutation*: per-node
///   marker tasks (scheduled as ordinary affinity-hinted tasks) and
///   bounded mutator assists at safe points drain the gray stack.
///   Soundness rests on three facts. (1) PML objects are immutable
///   once published, so the object graph reachable from the snapshot
///   can only shrink. (2) Objects allocated after the stamp sit above
///   their chunk's MarkLimit (or in an unstamped chunk) and are
///   retained wholesale without being scanned, so the tracer never
///   reads memory the mutator is still writing. (3) The only mutating
///   slots are roots, covered by the snapshot plus the terminal
///   re-scan, with a Yuasa-style deletion barrier (satbRecord /
///   satbRecordOverwrite) as a conservative backstop on overwrites.
///
///   ConcTerm -- the *terminal rendezvous*. Each vproc re-marks its
///   current root values (no local-heap walk is needed: local data is
///   retained by the vproc's own collections, and any global object it
///   came to reference was either snapshotted, retained by allocation
///   epoch, or recorded by the deletion barrier), the world drains the
///   gray stack cooperatively, and the leader sweeps: every stamped
///   chunk that ended the cycle with no marked objects and no
///   post-snapshot allocation is returned to the free pool. Chunks are
///   reclaimed whole; fragmented garbage is left to the next
///   stop-the-world compaction.
///
//===----------------------------------------------------------------------===//

#include "gc/CollectorImpl.h"

#include "support/Logging.h"
#include "support/SpinLock.h"

#include <atomic>
#include <mutex>
#include <thread>

namespace manti {

namespace {
/// Objects a mutator traces per safe-point assist. Small enough to keep
/// the poll latency bounded, large enough that assists alone terminate a
/// cycle when no marker tasks run (single-vproc tests, no runtime).
constexpr unsigned MutatorAssistBudget = 256;

/// Gray-stack objects claimed per batch (one InFlight increment each).
constexpr unsigned GrayBatch = 32;
} // namespace

/// Shared state for the concurrent mark cycles. Owned by the GCWorld.
class ConcurrentMark {
public:
  explicit ConcurrentMark(GCWorld &W) : W(W) {}

  /// Safe-point dispatch while Phase is one of the Conc* states.
  static void dispatch(VProcHeap &H);

  /// Marker-task work step; also the assist entry (see
  /// concurrentMarkSome below).
  bool markStep(VProcHeap &H, unsigned Budget);

  /// Marks the object at \p Obj (a global-heap pointer) for the running
  /// cycle. Objects in unstamped chunks or above their chunk's stamped
  /// allocation limit were allocated after the snapshot and are
  /// retained without scanning.
  void markObject(Word *Obj) {
    Chunk *C = W.Chunks.chunkOf(Obj);
    if (C->MarkEpoch.load(std::memory_order_relaxed) != Cycle)
      return; // chunk activated after the stamp: retained wholesale
    const Word *HdrSlot = Obj - 1;
    if (HdrSlot >= C->MarkLimit.load(std::memory_order_relaxed))
      return; // allocated after the stamp: retained, never scanned
    if (!C->testAndSetMark(HdrSlot))
      return;
    C->MarkedCount.fetch_add(1, std::memory_order_relaxed);
    pushGray(Obj);
  }

  /// Flips ConcMark -> ConcTerm when the gray stack looks drained. A
  /// racing deletion-barrier push can make the flip early; the terminal
  /// rendezvous re-drains the stack, so the race moves work into the
  /// terminal pause but never loses it.
  void tryTerminate() {
    {
      std::lock_guard<SpinLock> Guard(GrayLock);
      if (!Gray.empty())
        return;
    }
    if (InFlight.load(std::memory_order_acquire) != 0)
      return;
    GCPhase Expected = GCPhase::ConcMark;
    if (!W.Phase.compare_exchange_strong(Expected, GCPhase::ConcTerm,
                                         std::memory_order_acq_rel))
      return;
    for (auto &H : W.Heaps)
      H->local().signalLimit();
    W.notifyWakeupHook();
    MANTI_DEBUG("gc", "concurrent mark drained; terminal rendezvous");
  }

  void initRendezvous(VProcHeap &H);
  void terminalRendezvous(VProcHeap &H);

  GCWorld &W;

private:
  void pushGray(Word *Obj) {
    std::lock_guard<SpinLock> Guard(GrayLock);
    Gray.push_back(Obj);
  }

  /// Claims up to \p Max gray objects. Bumps InFlight (under the lock)
  /// when anything was claimed, so "gray empty" and "no batch active"
  /// can be checked as separate conditions by tryTerminate.
  unsigned popBatch(Word **Out, unsigned Max) {
    std::lock_guard<SpinLock> Guard(GrayLock);
    unsigned N = 0;
    while (N < Max && !Gray.empty()) {
      Out[N++] = Gray.back();
      Gray.pop_back();
    }
    if (N)
      InFlight.fetch_add(1, std::memory_order_acq_rel);
    return N;
  }

  void markWord(Word Wd) {
    if (wordIsPtr(Wd))
      markObject(reinterpret_cast<Word *>(Wd));
  }

  /// Marks a root value of \p H: local referents are skipped (kept by
  /// the vproc's own collections and covered by its local-heap walk).
  void markRootWord(VProcHeap &H, Word Wd) {
    if (!wordIsPtr(Wd))
      return;
    Word *Obj = reinterpret_cast<Word *>(Wd);
    if (H.local().contains(Obj))
      return;
    markObject(Obj);
  }

  void scanObject(Word *Obj);
  void markVProcRoots(VProcHeap &H, bool WalkLocalHeap);
  void drainUntilEmpty(VProcHeap &H);

  uint64_t Cycle = 0; ///< current mark epoch; changed only world-stopped
  SpinLock GrayLock;
  std::vector<Word *> Gray;
  /// Number of claimed-but-unfinished gray batches.
  std::atomic<int> InFlight{0};
};

ConcurrentMark *createConcurrentMark(GCWorld &W) {
  return new ConcurrentMark(W);
}

void ConcurrentMarkDeleter::operator()(ConcurrentMark *CM) const {
  delete CM;
}

/// Scans one marked (pre-snapshot, hence fully published) object. Only
/// proxies ever mutate after publication, so their two words are read
/// with atomic_refs: the owner word *first* (acquire) -- if it reads
/// resolved (-1), the subsequent payload load is guaranteed to see the
/// promoted global value the resolver published before flipping the
/// owner word (Proxy.cpp stores payload, then owner, both release).
void ConcurrentMark::scanObject(Word *Obj) {
  Word Hdr = headerOf(Obj);
  if (headerId(Hdr) == IdProxy) {
    Word OwnerW = std::atomic_ref<Word>(Obj[0]).load(std::memory_order_acquire);
    Word Payload =
        std::atomic_ref<Word>(Obj[1]).load(std::memory_order_acquire);
    if (!wordIsPtr(Payload))
      return;
    int64_t Owner = Value::fromBits(OwnerW).asInt();
    Word *Target = reinterpret_cast<Word *>(Payload);
    if (Owner >= 0 &&
        W.heap(static_cast<unsigned>(Owner)).local().contains(Target))
      return; // unresolved: the owner's proxy-table root keeps it alive
    markObject(Target);
    return;
  }
  // Ordinary objects may still have pointer fields CASed by mutators
  // mid-mark (lock-free structures do exactly that); a plain load here
  // is a data race with the mutator's atomic_ref CAS and, under the
  // SATB invariant, may also tear on weaker hardware. The dropped value
  // is covered by the mutator's SATB record; the new value is covered
  // either by this (acquire) load or by the allocating thread's mark.
  forEachPtrField(Obj, Hdr, W.Descs, [this](Word *Slot) {
    markWord(std::atomic_ref<Word>(*Slot).load(std::memory_order_acquire));
  });
}

bool ConcurrentMark::markStep(VProcHeap &H, unsigned Budget) {
  (void)H;
  bool DidWork = false;
  while (Budget != 0) {
    Word *Batch[GrayBatch];
    unsigned N = popBatch(Batch, Budget < GrayBatch ? Budget : GrayBatch);
    if (N == 0)
      break;
    DidWork = true;
    // The gray batch is a random walk over the global heap: request
    // every header in the batch up front so the scans overlap the
    // misses instead of serializing on them.
    for (unsigned I = 0; I < N; ++I)
      MANTI_PREFETCH(Batch[I] - 1);
    for (unsigned I = 0; I < N; ++I)
      scanObject(Batch[I]);
    InFlight.fetch_sub(1, std::memory_order_acq_rel);
    Budget -= N;
  }
  return DidWork;
}

/// Pushes the values of \p H's roots: shadow stack, proxy objects and
/// their payload slots, runtime extras, and -- when \p WalkLocalHeap --
/// every global reference held by the (husk-free, post-major) local
/// heap. Values are only read, never rewritten: nothing moves.
void ConcurrentMark::markVProcRoots(VProcHeap &H, bool WalkLocalHeap) {
  // The proxy objects themselves are global and must survive; their
  // payload slots are covered by forEachVProcRoot below.
  for (Word *Proxy : H.ProxyTable)
    markObject(Proxy);
  forEachVProcRoot(H, [this, &H](Word *Slot) { markRootWord(H, *Slot); });

  if (!WalkLocalHeap)
    return;
  LocalHeap &L = H.local();
  for (Word *Scan = L.base(); Scan < L.oldTop();) {
    Word Hdr = *Scan;
    MANTI_CHECK(isHeaderWord(Hdr), "husk in local heap during mark snapshot");
    forEachPtrField(Scan + 1, Hdr, W.Descs,
                    [this, &H](Word *Slot) { markRootWord(H, *Slot); });
    Scan += objectFootprintWords(Hdr);
  }
}

void ConcurrentMark::initRendezvous(VProcHeap &H) {
  ScopedTimer Pause(H.Stats.GlobalPause);
  ScopedTimer Rendezvous(H.Stats.GlobalRendezvousPause);

  // Local collections first: afterwards the local heap is a husk-free
  // linear young area (promotion husks from mid-cycle would otherwise
  // break the walk below), and all old data sits in global chunks where
  // the stamp can see it.
  minorGCImpl(H);
  majorGCImpl(H, EvacuateMode::OldOnly);

  if (W.GCBarrier.arriveAndWait()) {
    // Leader, world stopped: open the cycle. Every currently-active
    // chunk is stamped; anything acquired afterwards stays unstamped
    // and is retained wholesale.
    ++Cycle;
    W.Chunks.beginMarkCycle(Cycle);
    Gray.clear();
    InFlight.store(0, std::memory_order_relaxed);
    W.SatbActive.store(true, std::memory_order_relaxed);
    MANTI_DEBUG("gc", "concurrent cycle %llu: snapshot (active=%llu)",
                static_cast<unsigned long long>(Cycle),
                static_cast<unsigned long long>(W.Chunks.activeBytes()));
  }
  W.GCBarrier.arriveAndWait();

  // Every vproc snapshots its own roots in parallel.
  markVProcRoots(H, /*WalkLocalHeap=*/true);

  if (W.GCBarrier.arriveAndWait()) {
    // Root snapshot complete everywhere: the leader adds the process-
    // wide roots, opens the concurrent phase, and asks the runtime for
    // marker tasks.
    auto Visit = [this](Word *Slot) { markWord(*Slot); };
    W.enumerateGlobalRoots(fieldVisitTrampoline<decltype(Visit)>, &Visit);
    W.Phase.store(GCPhase::ConcMark, std::memory_order_release);
    W.notifyConcurrentMarkHook(H.id());
  }
  // Final barrier: nobody resumes (or re-polls a stale ConcInit) until
  // the phase flip is published.
  W.GCBarrier.arriveAndWait();

  H.local().restoreLimit();
  H.rearmLimitSignal();
}

void ConcurrentMark::drainUntilEmpty(VProcHeap &H) {
  for (;;) {
    if (markStep(H, MutatorAssistBudget))
      continue;
    bool Empty;
    {
      std::lock_guard<SpinLock> Guard(GrayLock);
      Empty = Gray.empty();
    }
    if (Empty && InFlight.load(std::memory_order_acquire) == 0)
      return;
    std::this_thread::yield();
  }
}

void ConcurrentMark::terminalRendezvous(VProcHeap &H) {
  ScopedTimer Pause(H.Stats.GlobalPause);

  {
    ScopedTimer Mark(H.Stats.GlobalMarkPause);
    // Re-mark current root values: the roots are the only slots that
    // changed since the snapshot. No local-heap walk -- mid-cycle
    // promotions may have left husks, and every global object a local
    // one references is covered by the snapshot, the allocation epoch,
    // or the deletion barrier.
    markVProcRoots(H, /*WalkLocalHeap=*/false);
    if (W.GCBarrier.arriveAndWait()) {
      // All mutators are stopped and re-marked; the snapshot no longer
      // needs its barrier, and the leader re-marks the global roots.
      W.SatbActive.store(false, std::memory_order_relaxed);
      auto Visit = [this](Word *Slot) { markWord(*Slot); };
      W.enumerateGlobalRoots(fieldVisitTrampoline<decltype(Visit)>, &Visit);
    }
    W.GCBarrier.arriveAndWait();
    // Cooperative final drain (the marker tasks' leftovers plus
    // whatever the re-scan and the deletion barrier added).
    drainUntilEmpty(H);
  }

  if (W.GCBarrier.arriveAndWait()) {
    ScopedTimer Sweep(H.Stats.GlobalSweepPause);
    // Pin every vproc's current allocation chunk: releasing one would
    // leave a dangling CurChunk bump pointer.
    std::vector<const Chunk *> Pinned;
    Pinned.reserve(W.Heaps.size());
    for (auto &Heap : W.Heaps)
      if (Heap->CurChunk)
        Pinned.push_back(Heap->CurChunk);
    uint64_t Freed = W.Chunks.sweepUnmarked(Cycle, Pinned);
    uint64_t Live = W.Chunks.activeBytes();
    uint64_t Base = static_cast<uint64_t>(W.Config.GlobalGCBytesPerVProc) *
                    W.numVProcs();
    W.GlobalGCThreshold.store(std::max(Base, 2 * Live),
                              std::memory_order_relaxed);
    W.GlobalLiveBytes.store(Live, std::memory_order_relaxed);
    for (auto &Heap : W.Heaps)
      Heap->GlobalAllocSinceCycle.store(0, std::memory_order_relaxed);
    W.GlobalGCsCompleted.fetch_add(1, std::memory_order_relaxed);
    W.ConcurrentGCsCompleted.fetch_add(1, std::memory_order_relaxed);
    W.Phase.store(GCPhase::Idle, std::memory_order_release);
    W.notifyWakeupHook();
    MANTI_DEBUG("gc",
                "concurrent cycle %llu: freed %llu bytes, live %llu bytes",
                static_cast<unsigned long long>(Cycle),
                static_cast<unsigned long long>(Freed),
                static_cast<unsigned long long>(Live));
  }
  W.GCBarrier.arriveAndWait();

  H.local().restoreLimit();
  H.rearmLimitSignal();
}

void ConcurrentMark::dispatch(VProcHeap &H) {
  ConcurrentMark &CM = *H.world().CMState;
  switch (H.world().phase()) {
  case GCPhase::Idle:
    return; // cycle completed between the caller's load and ours
  case GCPhase::StwPending:
    // The phase moved on to a STW request since the caller's load.
    globalGCParticipate(H);
    return;
  case GCPhase::ConcInit:
    CM.initRendezvous(H);
    return;
  case GCPhase::ConcMark:
    // Bounded mutator assist: guarantees cycle progress even when no
    // marker tasks are running (no runtime, or they all finished).
    if (!CM.markStep(H, MutatorAssistBudget))
      CM.tryTerminate();
    return;
  case GCPhase::ConcTerm:
    CM.terminalRendezvous(H);
    return;
  }
}

void concurrentGCSafePoint(VProcHeap &H) { ConcurrentMark::dispatch(H); }

bool concurrentMarkSome(VProcHeap &H, unsigned Budget) {
  GCWorld &W = H.world();
  if (W.phase() != GCPhase::ConcMark)
    return false;
  ConcurrentMark &CM = *W.CMState;
  if (!CM.markStep(H, Budget)) {
    CM.tryTerminate();
    return false;
  }
  return true;
}

/// Cold half of the deletion barrier: called on slot overwrites while a
/// snapshot is held. Local referents are the vproc's own business; a
/// global referent is (re-)marked so the snapshot stays closed.
void VProcHeap::satbMarkOld(Value Old) {
  Word *Obj = Old.asPtr();
  if (Local.contains(Obj))
    return;
  World.CMState->markObject(Obj);
}

} // namespace manti
