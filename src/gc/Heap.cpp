//===- gc/Heap.cpp - GCWorld / VProcHeap and the allocation paths ---------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

// This TU implements the raw allocation surface the handle layer wraps.
#define MANTI_GC_INTERNAL 1

#include "gc/HeapInternal.h"

#include "gc/CollectorImpl.h"
#include "gc/Handles.h"
#include "support/Assert.h"
#include "support/Compiler.h"
#include "support/Logging.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

using namespace manti;

namespace {

/// GCConfig::StressGC can be forced from the environment so existing
/// test binaries run stressed in CI without a rebuild.
bool stressGCFromEnv() {
  const char *Env = std::getenv("MANTI_STRESS_GC");
  return Env && *Env && !(Env[0] == '0' && Env[1] == '\0');
}

/// StressGC schedules, counted in forced collections: every
/// StressMajorEvery-th also collects the old area, and every
/// StressGlobalEvery-th requests a global collection, so values held
/// unrooted across an allocation go stale in every space, not only in
/// the nursery.
constexpr uint64_t StressMajorEvery = 8;
constexpr uint64_t StressGlobalEvery = 64;

GCConfig applyEnvOverrides(GCConfig Config) {
  if (stressGCFromEnv())
    Config.StressGC = true;
  // MANTI_STRESS_GC_PERIOD=N: collect on every Nth eligible allocation
  // instead of every one (takes precedence over the config value).
  if (const char *Env = std::getenv("MANTI_STRESS_GC_PERIOD")) {
    char *End = nullptr;
    unsigned long N = std::strtoul(Env, &End, 10);
    if (End != Env && *End == '\0' && N >= 1)
      Config.StressGCPeriod = static_cast<unsigned>(N);
  }
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// GCWorld
//===----------------------------------------------------------------------===//

GCWorld::GCWorld(const GCConfig &Config, const Topology &Topo,
                 unsigned NumVProcs)
    : Config(applyEnvOverrides(Config)), Topo(Topo),
      Banks(Topo.numNodes(),
            Config.BindMemory ? MemoryBanks::BindMode::Bound
                              : MemoryBanks::BindMode::Simulated,
            [&] {
              std::vector<unsigned> Ids(Topo.numNodes());
              for (unsigned N = 0; N < Topo.numNodes(); ++N)
                Ids[N] = Topo.osNodeOfNode(N);
              return Ids;
            }()),
      Policy(Config.Policy, Topo.numNodes()), Traffic(Topo.numNodes()),
      Chunks(Banks, Policy, Config.ChunkBytes, Config.PreserveChunkAffinity),
      GlobalGCThreshold(static_cast<uint64_t>(Config.GlobalGCBytesPerVProc) *
                        NumVProcs),
      GCBarrier(NumVProcs) {
  MANTI_CHECK(NumVProcs >= 1, "need at least one vproc");
  MANTI_CHECK(Config.LocalHeapBytes >= 64 * 1024 &&
                  isAligned(Config.LocalHeapBytes, MemoryBanks::PageSize),
              "local heap size must be a page multiple >= 64 KiB");
  MANTI_CHECK(Config.MinNurseryBytes * 4 <= Config.LocalHeapBytes,
              "minimum nursery too large for the local heap");

  // vprocs are assigned sparsely across the nodes (Section 2.2).
  std::vector<CoreId> Cores = Topo.assignVProcsSparsely(NumVProcs);
  Heaps.reserve(NumVProcs);
  for (unsigned Id = 0; Id < NumVProcs; ++Id)
    Heaps.push_back(std::make_unique<VProcHeap>(*this, Id, Cores[Id],
                                                Topo.nodeOfCore(Cores[Id])));

  GCState.reset(createGlobalCollection(*this));
  CMState.reset(createConcurrentMark(*this));
}

GCWorld::~GCWorld() = default;

void GCWorld::requestGlobalGC() {
  GCPhase Expected = GCPhase::Idle;
  if (!Phase.compare_exchange_strong(Expected, GCPhase::StwPending,
                                     std::memory_order_acq_rel))
    return; // a collection (either flavor) is already pending or running
  GlobalRequestNanos.store(
      DurationStat::Clock::now().time_since_epoch().count(),
      std::memory_order_release);
  // Section 3.4, step 2: signal every vproc by zeroing its allocation
  // limit; each enters the collector at its next safe point.
  for (auto &H : Heaps)
    H->local().signalLimit();
  // Ring the broadcast doorbell: vprocs parked in the idle wait or in
  // channel waits head for their safe points now instead of adding a
  // park interval to everyone's stop-the-world entry.
  notifyWakeupHook();
  MANTI_DEBUG("gc", "global collection requested (active=%llu)",
              static_cast<unsigned long long>(Chunks.activeBytes()));
}

bool GCWorld::startConcurrentMark() {
  GCPhase Expected = GCPhase::Idle;
  if (!Phase.compare_exchange_strong(Expected, GCPhase::ConcInit,
                                     std::memory_order_acq_rel))
    return false; // a collection (either flavor) is already underway
  // Same convergence mechanism as the STW request: zeroed limits plus
  // the broadcast doorbell bring every vproc to the (short) snapshot
  // rendezvous. Safe points dispatch on the phase word itself, so a
  // limit signal lost to a concurrent restoreLimit only costs latency,
  // never correctness.
  for (auto &H : Heaps)
    H->local().signalLimit();
  notifyWakeupHook();
  MANTI_DEBUG("gc", "concurrent mark requested (active=%llu)",
              static_cast<unsigned long long>(Chunks.activeBytes()));
  return true;
}

NodeId GCWorld::homeNodeOf(Value V, NodeId Fallback) {
  if (!V.isPtr())
    return Fallback;
  const Word *P = V.asPtr();
  for (auto &H : Heaps)
    if (H->local().contains(P))
      return H->localHeapHomeNode();
  return Chunks.chunkOf(P)->HomeNode;
}

void GCWorld::noteLiveAfterCollection(uint64_t Live) {
  // Adapt the trigger so a nearly-live heap does not thrash: at least
  // the configured budget, and at least twice the surviving data.
  uint64_t Base =
      static_cast<uint64_t>(Config.GlobalGCBytesPerVProc) * numVProcs();
  GlobalGCThreshold.store(std::max(Base, 2 * Live), std::memory_order_relaxed);
  if (Live > PeakLiveBytes.load(std::memory_order_relaxed))
    PeakLiveBytes.store(Live, std::memory_order_relaxed);
}

GCStats GCWorld::aggregateStats() const {
  GCStats Total;
  for (const auto &H : Heaps)
    Total.merge(H->Stats);
  return Total;
}

//===----------------------------------------------------------------------===//
// VProcHeap
//===----------------------------------------------------------------------===//

VProcHeap::VProcHeap(GCWorld &World, unsigned Id, CoreId Core, NodeId Node)
    : World(World), Id(Id), Core(Core), Node(Node),
      LocalHeapHome(World.Policy.homeFor(Node)),
      LocalMem(World.Banks.allocBlock(World.Config.LocalHeapBytes,
                                      LocalHeapHome)),
      Local(LocalMem, World.Config.LocalHeapBytes) {
  // Pre-size the slab stack: a mid-allocation std::vector regrow is the
  // worst possible time to call the system allocator.
  SlabStack.reserve(64);
}

VProcHeap::~VProcHeap() {
  while (SlabFreeList) {
    RootSlab *Next = SlabFreeList->NextFree;
    delete SlabFreeList;
    SlabFreeList = Next;
  }
  World.Banks.freeBlock(LocalMem, World.Config.LocalHeapBytes);
}

void VProcHeap::minorGC() { minorGCImpl(*this); }

void VProcHeap::majorGC() {
  // A major collection is always immediately preceded by a minor one;
  // the data that minor copies becomes the young area the major retains.
  minorGCImpl(*this);
  majorGCImpl(*this, EvacuateMode::OldOnly);
}

/// Innermost-RootScope heap for the handle layer's deletion barrier
/// (declared in Heap.h, maintained by RootScope in Handles.h).
thread_local VProcHeap *gcdetail::CurrentSatbHeap = nullptr;

//===----------------------------------------------------------------------===//
// Global-heap bump allocation
//===----------------------------------------------------------------------===//

/// Acquires a chunk for this vproc and tallies the synchronization class
/// into the per-vproc stats (the manager keeps the machine-wide view).
Chunk *VProcHeap::acquireChunkCounted() {
  ChunkSource Src;
  Chunk *C = World.Chunks.acquireChunk(Node, &Src);
  switch (Src) {
  case ChunkSource::LocalReuse:
    ++Stats.ChunkLocalReuses;
    break;
  case ChunkSource::RemoteReuse:
    ++Stats.ChunkCrossNodeSteals;
    break;
  case ChunkSource::Fresh:
    ++Stats.ChunkFreshRegistrations;
    break;
  }
  return C;
}

Word *VProcHeap::globalReserve(uint64_t FootprintWords, Chunk **UsedChunk) {
  std::size_t Bytes = FootprintWords * sizeof(Word);
  // Uncontended owner bump; the watermark trigger sums these lazily.
  GlobalAllocSinceCycle.fetch_add(Bytes, std::memory_order_relaxed);
  if (Bytes > World.Chunks.standardCapacityBytes()) {
    Chunk *Big = World.Chunks.acquireOversized(Node, Bytes);
    ++Stats.ChunkFreshRegistrations;
    Word *P = Big->tryReserve(FootprintWords);
    MANTI_CHECK(P, "oversized chunk cannot hold its object");
    *UsedChunk = Big;
    return P;
  }
  if (!CurChunk)
    CurChunk = acquireChunkCounted();
  *UsedChunk = CurChunk;
  if (Word *P = CurChunk->tryReserve(FootprintWords))
    return P;
  CurChunk = acquireChunkCounted();
  *UsedChunk = CurChunk;
  Word *P = CurChunk->tryReserve(FootprintWords);
  MANTI_CHECK(P, "object does not fit in a global-heap chunk");
  return P;
}

Word *VProcHeap::globalAllocObject(uint16_t Id, uint64_t LenWords) {
  Chunk *Used = nullptr;
  Word *HdrSlot = globalReserve(LenWords + 1, &Used);
  HdrSlot[0] = makeHeader(Id, LenWords);
  Stats.BytesAllocatedGlobal += (LenWords + 1) * sizeof(Word);
  World.Traffic.record(Node, Used->HomeNode, (LenWords + 1) * sizeof(Word));
  maybeTriggerGlobalGC((LenWords + 1) * sizeof(Word));
  return HdrSlot + 1;
}

void VProcHeap::maybeTriggerGlobalGC(uint64_t JustAllocatedBytes) {
  if (!World.Config.ConcurrentGlobal) {
    // Stop-the-world mode: the classic trigger, checked on every global
    // allocation so threshold crossings are caught exactly.
    if (World.Chunks.activeBytes() > World.globalGCThresholdBytes())
      World.requestGlobalGC();
    return;
  }
  // Concurrent mode, corobase-style: accumulate locally and only re-sum
  // everyone's counters once per stride of this vproc's own allocation.
  WatermarkResidue += JustAllocatedBytes;
  if (MANTI_LIKELY(WatermarkResidue < GCWorld::WatermarkStrideBytes))
    return;
  WatermarkResidue = 0;
  if (World.phase() != GCPhase::Idle)
    return; // a cycle is already pending or running
  uint64_t Allocated = 0;
  for (auto &H : World.Heaps)
    Allocated += H->GlobalAllocSinceCycle.load(std::memory_order_relaxed);
  const uint64_t Threshold = World.globalGCThresholdBytes();
  const auto Watermark = static_cast<uint64_t>(
      ConcurrentMarkWatermark * static_cast<double>(Threshold));
  if (Allocated >= Watermark)
    // Enough new allocation since the last cycle: start marking now,
    // well before the hard threshold, so the cycle finishes while the
    // heap still has headroom.
    World.startConcurrentMark();
  else if (World.Chunks.activeBytes() > Threshold)
    // Backstop: fragmentation or floating garbage outran the watermark;
    // fall back to the compacting stop-the-world collection.
    World.requestGlobalGC();
}

//===----------------------------------------------------------------------===//
// Local allocation: fast path and GC-driving slow path
//===----------------------------------------------------------------------===//

/// StressGC: every slow-path-eligible allocation first validates the
/// registered root slots, then actually collects, so any Value held outside a
/// rooted slot across this allocation is stale the moment the caller
/// resumes -- the intermittent bug becomes a deterministic one.
void VProcHeap::stressGCBeforeAlloc() {
  // StressGCPeriod spaces the forced collections out: only every Nth
  // eligible allocation pays the check + collection.
  if (World.Config.StressGCPeriod > 1 &&
      (++StressTick % World.Config.StressGCPeriod) != 0)
    return;
  debugCheckShadowStack();
  uint64_t N = ++StressCollections;
  // A global collection needs every vproc at a safe point. That holds
  // for a lone vproc and for a runtime's vprocs (each runs on a thread
  // that polls, and the wakeup hook rings parked ones), not for a test
  // world that drives several heaps from one thread.
  if (N % StressGlobalEvery == 0 &&
      (World.numVProcs() == 1 || World.WakeupHook))
    World.requestGlobalGC();
  safePoint();
  minorGCImpl(*this);
  if (N % StressMajorEvery == 0 ||
      Local.nurseryCapacityBytes() < World.Config.MinNurseryBytes)
    majorGCImpl(*this, EvacuateMode::OldOnly);
}

void VProcHeap::debugCheckShadowStack() const {
  auto CheckSlot = [&](Value V) {
    if (!V.isPtr())
      return; // nil and tagged ints are always fine
    const Word *P = V.asPtr();
    bool Placed;
    if (Local.contains(P)) {
      // Must be an allocated region of *this* vproc's heap: old data,
      // young data, or the used prefix of the nursery -- never the gap
      // or the unallocated nursery tail a stale pointer would hit.
      Placed = Local.inOldData(P) || Local.inYoungData(P) ||
               (P >= Local.nurseryStart() && P < Local.allocPtr());
    } else {
      Placed = World.Chunks.activeChunksContain(P);
    }
    bool Sound = Placed;
    if (Sound) {
      Word Hdr = headerOf(P);
      if (isForwardWord(Hdr))
        // A promotion husk: the slot is repaired lazily by the next
        // local collection (Heap.h, promote). The forwarded copy must
        // already live in the global heap.
        Sound = World.Chunks.activeChunksContain(
            reinterpret_cast<const Word *>(Hdr));
    }
    MANTI_CHECK(Sound,
                "root slot holds an unrooted or stale heap pointer");
  };
  for (const Value *Slot : LifetimeRoots)
    CheckSlot(*Slot);
  for (const RootSlab *Slab : SlabStack)
    for (unsigned I = 0; I < Slab->Count; ++I)
      CheckSlot(Slab->Slots[I]);
}

void VProcHeap::removeLifetimeRoot(Value *Slot) {
  auto It = std::find(LifetimeRoots.begin(), LifetimeRoots.end(), Slot);
  MANTI_CHECK(It != LifetimeRoots.end(), "lifetime root was never added");
  *It = LifetimeRoots.back();
  LifetimeRoots.pop_back();
}

void VProcHeap::takeLimitSignal() {
  // Take the flag before restoring the limit. A thief sets its flag
  // before it zeroes the limit, so a zero that lands after this restore
  // either comes with a flag still set or belongs to a request this call
  // answers; the next slow-path entry restores such a stale zero. The
  // flag is taken even when the limit is intact: a collection's resplit
  // may have raced the thief's zero.
  bool Steal = StealSignal.exchange(false, std::memory_order_acq_rel);
  if (Local.limitSignalled()) {
    Local.restoreLimit();
    // Order the restore before safePoint's phase load: a collection
    // requested before the restore is then seen through the phase word
    // even though its limit zero was overwritten.
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
  if (Steal)
    World.notifyStealHook(Id);
}

Word *VProcHeap::allocSlowPath(uint16_t Id, uint64_t LenWords) {
  uint64_t FootBytes = (LenWords + 1) * sizeof(Word);
  for (unsigned Attempt = 0;;) {
    // A zeroed limit may mean a steal request or a pending collection
    // rendezvous rather than a full nursery (Section 3.4 step 2). The
    // steal is answered first; safePoint then dispatches on the phase
    // word and participates in whichever collection flavor is underway
    // (including one the answer's promotion just requested).
    takeLimitSignal();
    safePoint();
    if (Word *P = Local.tryAlloc(Id, LenWords))
      return P;
    // Signalled again since the restore: each such retry answers a new
    // request from another vproc, so only collecting rounds count
    // toward the progress bound.
    if (Local.limitSignalled())
      continue;
    MANTI_CHECK(Attempt++ < 8, "allocation cannot make progress");

    // Raw objects too large for the nursery go straight to the global
    // heap: they contain no pointers, so the no-global-to-local-pointer
    // invariant cannot be violated. Pointer-carrying objects never take
    // this path; their public allocators pre-promote and allocate
    // globally themselves when oversized.
    if (Id == IdRaw && FootBytes > Local.nurseryCapacityBytes() / 2 &&
        FootBytes > World.Config.MinNurseryBytes)
      return globalAllocObject(Id, LenWords);

    // Genuine nursery exhaustion: minor collection, and a major one when
    // the new nursery falls below the threshold (Section 3.3).
    minorGCImpl(*this);
    if (Local.nurseryCapacityBytes() < World.Config.MinNurseryBytes ||
        Local.nurseryCapacityBytes() < FootBytes * 2)
      majorGCImpl(*this, EvacuateMode::OldOnly);
    if (Word *P = Local.tryAlloc(Id, LenWords))
      return P;
    if (Local.limitSignalled())
      continue;

    // Still failing: live local data is crowding the heap. Evacuate
    // everything reachable and retry with an empty local heap.
    majorGCImpl(*this, EvacuateMode::AllLocal);
    if (Word *P = Local.tryAlloc(Id, LenWords))
      return P;
    MANTI_CHECK(FootBytes <= Local.nurseryCapacityBytes(),
                "object too large for the local heap; allocate it globally");
  }
}

//===----------------------------------------------------------------------===//
// Public allocators
//===----------------------------------------------------------------------===//

Value VProcHeap::allocVectorSlow(const Value *Elems, std::size_t N) {
  // The object lands in the global heap, so its elements must be global
  // first (no global-to-local pointers). Promote them in place: Elems
  // points at rooted slots, so rewriting them is sound, and the husks
  // left behind repair any other copies at the next minor GC.
  if (Elems)
    for (std::size_t I = 0; I < N; ++I)
      const_cast<Value *>(Elems)[I] = promote(Elems[I]);
  return allocGlobalVector(Elems, N);
}

Value VProcHeap::allocVectorFillSlow(std::size_t N, Value FillIn) {
  uint64_t LenWords = std::max<uint64_t>(1, N);
  RootScope S(*this);
  Value &Fill = S.slot(FillIn);
  Word *Obj;
  if (vectorIsOversized(N)) {
    Fill = promote(Fill);
    Obj = globalAllocObject(IdVector, LenWords);
  } else {
    Obj = allocLocalObject(IdVector, LenWords);
  }
  Obj[LenWords - 1] = Value::nil().bits();
  for (std::size_t I = 0; I < N; ++I)
    Obj[I] = Fill.bits();
  return Value::fromPtr(Obj);
}

Value gcinternal::HeapAccess::allocMixedRooted(VProcHeap &H, uint16_t Id,
                                               const Word *RawFields,
                                               Value *const *PtrFieldSlots) {
  const ObjectDescriptor &Desc = H.World.descriptors().lookup(Id);
  Word *Obj = H.allocLocalObject(Id, Desc.sizeWords());
  std::memcpy(Obj, RawFields, Desc.sizeWords() * sizeof(Word));
  // The allocation may have collected; the rooted slots hold the current
  // addresses.
  for (unsigned I = 0; I < Desc.numPtrFields(); ++I)
    Obj[Desc.ptrOffsets()[I]] = PtrFieldSlots[I]->bits();
  return Value::fromPtr(Obj);
}

Value VProcHeap::allocGlobalRaw(const void *Data, std::size_t Bytes) {
  uint64_t LenWords = std::max<uint64_t>(1, divideCeil(Bytes, sizeof(Word)));
  Word *Obj = globalAllocObject(IdRaw, LenWords);
  Obj[LenWords - 1] = 0;
  if (Data)
    std::memcpy(Obj, Data, Bytes);
  else
    std::memset(Obj, 0, LenWords * sizeof(Word));
  return Value::fromPtr(Obj);
}

Value VProcHeap::allocGlobalVector(const Value *Elems, std::size_t N) {
  uint64_t LenWords = std::max<uint64_t>(1, N);
  Word *Obj = globalAllocObject(IdVector, LenWords);
  Obj[LenWords - 1] = Value::nil().bits();
  for (std::size_t I = 0; I < N; ++I) {
    Value V = Elems ? Elems[I] : Value::nil();
    MANTI_CHECK(!V.isPtr() || !Local.contains(V.asPtr()),
                "global vector element references a local heap");
    Obj[I] = V.bits();
  }
  return Value::fromPtr(Obj);
}

Value VProcHeap::promote(Value V) {
  if (!V.isPtr() || !Local.contains(V.asPtr()))
    return V;
  ScopedTimer Timer(Stats.PromotePause);
  ++Stats.PromoteCalls;
  GlobalEvacuator Evac(*this, EvacuateMode::AllLocal);
  Word NewW = Evac.forwardWord(V.bits());
  Evac.drain();
  Stats.PromoteBytes += Evac.bytesCopied();
  maybeTriggerGlobalGC(Evac.bytesCopied());
  return Value::fromBits(NewW);
}
