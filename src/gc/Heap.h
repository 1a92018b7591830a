//===- gc/Heap.h - GC world and per-vproc heaps ---------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap *infrastructure* layer: worlds, per-vproc heaps, and the
/// raw Value-level allocators the collectors and the handle layer are
/// built on. **The public mutator-facing surface is gc/Handles.h**
/// (RootScope, Ref<T>, ObjectType<T>, alloc<T>); workloads, examples,
/// and runtime libraries should program against that API, which makes
/// the rooting discipline below impossible to get wrong by construction.
///
/// A GCWorld owns everything shared: the object-descriptor table, the
/// per-node memory banks, the page-placement policy, the chunk manager
/// for the global heap, and the coordination state for parallel global
/// collections. It creates one VProcHeap per virtual processor, each
/// pinned (logically) to a core chosen sparsely across the NUMA nodes.
///
/// A VProcHeap bundles a vproc's local Appel heap, its current global
/// chunk, its root slots (RootScope slabs plus lifetime roots), its
/// proxy table, and its GC statistics. All allocation goes through the
/// VProcHeap and must happen on the vproc's own thread; the only
/// cross-thread operations are the global collector and a thief zeroing
/// allocation limits.
///
/// Rooting discipline: any Value live across an allocation must sit in
/// a registered root slot. There is one way to get a scoped slot:
/// RootScope (gc/Handles.h), whose slabs VProcHeap::SlabStack lists.
/// Runtime structures that outlive every scope register a lifetime root
/// (addLifetimeRoot / removeLifetimeRoot) instead.
/// Allocation functions that take source Values receive *pointers to
/// rooted slots* so the sources survive a collection triggered by the
/// allocation itself.
///
/// The language model is mutation-free (PML): once an object's fields
/// are initialized they never change. That invariant -- not a write
/// barrier -- is what keeps minor collections synchronization-free and
/// lets the major collection retain young data (see the paper, Sections
/// 2.3 and 3).
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_GC_HEAP_H
#define MANTI_GC_HEAP_H

#include "gc/GCStats.h"
#include "gc/GlobalHeap.h"
#include "gc/LocalHeap.h"
#include "gc/ObjectDescriptor.h"
#include "gc/ObjectModel.h"
#include "numa/AllocPolicy.h"
#include "numa/MemoryBanks.h"
#include "numa/Topology.h"
#include "numa/TrafficMatrix.h"
#include "support/Barrier.h"
#include "support/Compiler.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace manti {

class GCWorld;
class VProcHeap;

namespace gcinternal {
/// Gateway for the raw Value-level mixed allocator (allocMixedRooted).
/// Lives in gc/HeapInternal.h, which only MANTI_GC_INTERNAL translation
/// units (the handle layer, collector tests, gc_microbench) may include;
/// everything else programs against gc/Handles.h.
struct HeapAccess;
} // namespace gcinternal

/// Opaque per-world state of the parallel global collector (GlobalGC.cpp).
class GlobalCollection;
GlobalCollection *createGlobalCollection(GCWorld &W);
struct GlobalCollectionDeleter {
  void operator()(GlobalCollection *GC) const;
};

/// Opaque per-world state of the mostly-concurrent global marker
/// (ConcurrentGC.cpp).
class ConcurrentMark;
ConcurrentMark *createConcurrentMark(GCWorld &W);
struct ConcurrentMarkDeleter {
  void operator()(ConcurrentMark *CM) const;
};

/// Stop-the-world collection entry (GlobalGC.cpp): called from a safe
/// point when a STW collection is pending.
void globalGCParticipate(VProcHeap &H);

/// Concurrent-collection safe-point dispatch (ConcurrentGC.cpp): joins
/// the initial/terminal rendezvous or performs a bounded mutator marking
/// assist, depending on the current phase.
void concurrentGCSafePoint(VProcHeap &H);

/// Marker-task work step (ConcurrentGC.cpp): traces up to \p Budget gray
/// objects on behalf of \p H's vproc. \returns false when the cycle is
/// not in its marking phase or no gray work was available (the caller's
/// marker task should exit and let safe-point polls finish the cycle).
bool concurrentMarkSome(VProcHeap &H, unsigned Budget);

/// Tunables for the memory system. Defaults are scaled down from the
/// paper's values (L3-sized local heaps, 32 MB/vproc global trigger) so
/// the test suite exercises every collector phase quickly.
struct GCConfig {
  /// Fixed size of each vproc's local heap ("chosen so that the local
  /// heaps will fit into the L3 cache").
  std::size_t LocalHeapBytes = 512 * 1024;
  /// A minor collection triggers a major one when the new nursery would
  /// be smaller than this.
  std::size_t MinNurseryBytes = 64 * 1024;
  /// Size of each global-heap chunk.
  std::size_t ChunkBytes = 256 * 1024;
  /// Global collection triggers when active global bytes exceed
  /// NumVProcs * this (the paper uses 32 MB).
  std::size_t GlobalGCBytesPerVProc = 4 * 1024 * 1024;
  /// Page-placement policy (Section 4.3's experiment knob).
  AllocPolicyKind Policy = AllocPolicyKind::Local;
  /// Real page placement: mmap the memory banks' block arenas and bind
  /// them to their home node's physical bank with mbind (verified via
  /// move_pages). Only meaningful with a host topology on a build that
  /// found libnuma (MANTI_NUMA=ON); degrades to unbound first-touch
  /// mappings everywhere else. Off by default: the recorded topologies'
  /// "node 3" is a simulation label, not an OS node.
  bool BindMemory = false;
  /// Reuse global chunks on their home node (ablation knob).
  bool PreserveChunkAffinity = true;
  /// Stress mode: force a minor collection on every allocation that is
  /// eligible for the GC slow path, and validate every registered root slot
  /// (nil / int / live heap pointer) first. On fixed sparser schedules a
  /// forced collection is also a major one (the old area moves) or,
  /// where every vproc polls, a global one (global objects move, and the
  /// released from-space is poisoned so a stale read fails at once).
  /// Turns "a collection *may* happen here" into "a collection *does*
  /// happen here", so unrooted Values fail deterministically instead of
  /// intermittently. Also enabled by setting the MANTI_STRESS_GC
  /// environment variable (any value but "0"), so existing test binaries
  /// can be stressed in CI without recompilation.
  bool StressGC = false;
  /// Stress schedule: collect on every Nth slow-path-eligible allocation
  /// instead of every one (1 = every allocation, the strictest setting).
  /// Larger periods let stress cover tests whose premises (phase-exact
  /// accounting, zero-promotion setups) a collection inside every
  /// allocation would destroy, and make big-geometry workloads
  /// affordable under stress. Overridden by the MANTI_STRESS_GC_PERIOD
  /// environment variable when set.
  unsigned StressGCPeriod = 1;
  /// Run global collections as mostly-concurrent mark cycles (snapshot-
  /// at-the-beginning marking overlapped with mutation, bounded by two
  /// short rendezvous) instead of the stop-the-world copying collection.
  /// Off by default: the STW collector compacts and is the ablation
  /// baseline; the concurrent collector reclaims whole-chunk garbage
  /// without moving anything.
  bool ConcurrentGlobal = false;
};

/// Fraction of the global-GC threshold at which allocation-byte
/// watermarks start a concurrent mark cycle (only meaningful with
/// GCConfig::ConcurrentGlobal). Starting early keeps the cycle ahead of
/// the hard threshold, whose crossing still forces a STW fallback.
inline constexpr double ConcurrentMarkWatermark = 0.5;

/// Global-collection phase word. Single source of truth for "is any
/// global collection pending or running": every transition is a CAS or a
/// leader store on GCWorld::Phase, and safe points dispatch on one
/// acquire load.
enum class GCPhase : uint8_t {
  Idle,       ///< no global collection active
  StwPending, ///< stop-the-world collection requested; vprocs converging
  ConcInit,   ///< concurrent mark: initial snapshot rendezvous
  ConcMark,   ///< concurrent mark: tracing overlapped with mutation
  ConcTerm,   ///< concurrent mark: terminal rendezvous (re-scan + sweep)
};

/// Visits one root slot; the visitor may rewrite the slot's word.
using RootSlotVisitor = void (*)(Word *Slot, void *VisitorCtx);

/// Enumerates extra roots (beyond the heap's own root slots) owned by a
/// vproc -- the runtime registers its ready-queue and mailbox scanning
/// here.
/// Implementations call \p Visit once per root slot.
using VProcRootEnumerator = void (*)(unsigned VProcId, RootSlotVisitor Visit,
                                     void *VisitorCtx, void *EnumCtx);

/// Enumerates process-wide roots that may only reference the global heap
/// (join cells, channels). Scanned by the global collector's leader.
using GlobalRootEnumerator = void (*)(RootSlotVisitor Visit, void *VisitorCtx,
                                      void *EnumCtx);

//===----------------------------------------------------------------------===//
// VProcHeap
//===----------------------------------------------------------------------===//

/// Fixed-capacity block of root slots. RootScope (gc/Handles.h) embeds
/// one inline and chains overflow slabs through the owning heap's free
/// list; the collectors enumerate VProcHeap::SlabStack directly, so
/// registering a slot costs one slab store. Slabs never move while
/// registered (handle slot addresses must stay stable), which is why
/// growth chains new slabs instead of reallocating.
struct RootSlab {
  static constexpr unsigned Capacity = 16;
  RootSlab() {}
  unsigned Count = 0;
  RootSlab *NextFree = nullptr;
  /// Anonymous union: slots past Count are never read (the collectors
  /// and the root-slot checker iterate [0, Count)), so constructing
  /// a slab must not pay for nil-initializing all Capacity slots --
  /// RootScope embeds one per scope.
  union {
    Value Slots[Capacity];
  };
};

class VProcHeap {
public:
  VProcHeap(GCWorld &World, unsigned Id, CoreId Core, NodeId Node);
  ~VProcHeap();

  VProcHeap(const VProcHeap &) = delete;
  VProcHeap &operator=(const VProcHeap &) = delete;

  GCWorld &world() { return World; }
  unsigned id() const { return Id; }
  CoreId core() const { return Core; }
  NodeId node() const { return Node; }
  LocalHeap &local() { return Local; }
  const LocalHeap &local() const { return Local; }

  /// Node whose bank actually backs the local heap's pages (differs from
  /// node() under the interleaved / single-node policies).
  NodeId localHeapHomeNode() const { return LocalHeapHome; }

  //===--------------------------------------------------------------------===//
  // Allocation (vproc thread only)
  //===--------------------------------------------------------------------===//

  /// Allocates a raw-data object holding \p Bytes bytes (copied from
  /// \p Data when non-null, zeroed otherwise).
  Value allocRaw(const void *Data, std::size_t Bytes);

  /// Allocates a vector of \p N values. \p Elems (when non-null) points
  /// at N *rooted* slots that are re-read after any collection. The
  /// common case is one nursery bump (inline below); a vector too large
  /// for the local heap goes to the global heap (allocVectorSlow).
  Value allocVector(const Value *Elems, std::size_t N);

  /// Allocates a vector of \p N copies of a non-pointer \p Fill value.
  Value allocVectorFill(std::size_t N, Value Fill);

  // Mixed-type (typed, pointer-bearing) allocation is reached through
  // gc/Handles.h (alloc<T>(RootScope&, ...)); the raw word-level entry
  // point lives behind gcinternal::HeapAccess in gc/HeapInternal.h.

  /// Allocates a raw object directly in the global heap (used for large
  /// immutable data shared across vprocs, e.g. benchmark inputs).
  Value allocGlobalRaw(const void *Data, std::size_t Bytes);

  /// Allocates a vector directly in the global heap. Every element must
  /// already be a non-pointer or a global-heap pointer (the no
  /// global-to-local-pointer invariant is checked).
  Value allocGlobalVector(const Value *Elems, std::size_t N);

  //===--------------------------------------------------------------------===//
  // Collection entry points (vproc thread only)
  //===--------------------------------------------------------------------===//

  /// Copies live nursery data into the old-data area (paper Fig. 2).
  void minorGC();

  /// Runs a minor collection, then copies the old-data area (except the
  /// young data the minor just produced) to the global heap and slides
  /// the young data to the heap base (paper Fig. 3).
  void majorGC();

  /// Promotes \p V's object graph into the global heap and \returns the
  /// promoted value ("essentially a major collection where the root set
  /// is a pointer to the promoted object"). Non-local values pass
  /// through unchanged. Other copies of the promoted value held in
  /// rooted slots are repaired lazily by the next local collection via
  /// the forwarding pointers left behind.
  Value promote(Value V);

  /// Polls for pending collector work and participates: joins a
  /// stop-the-world collection, a concurrent-mark rendezvous, or lends a
  /// bounded marking assist while a concurrent cycle is tracing. Every
  /// potentially-blocking runtime loop calls this.
  void safePoint();

  /// Yuasa-style deletion-barrier entry for runtime-owned root tables
  /// (e.g. the KV store's entry slots): call with the value about to be
  /// overwritten or dropped. No-op unless a concurrent mark snapshot is
  /// active.
  void satbRecord(Value Old);

  /// Cold half of the deletion barrier: marks \p Old's global object so
  /// the snapshot the running cycle committed to stays reachable.
  /// Requires Old.isPtr() and an active snapshot. (ConcurrentGC.cpp)
  void satbMarkOld(Value Old);

  /// \returns true if this vproc's allocation limit has been zeroed.
  bool gcSignalled() const { return Local.limitSignalled(); }

  /// Steal signal (any thread): the limit-pointer interrupt of Section
  /// 3.4 step 2, used for a steal request instead of a collection. Sets
  /// the steal flag, then zeroes the allocation limit, so the owner
  /// enters allocSlowPath at its next allocation and answers its steal
  /// mailbox there through the runtime's steal hook.
  void signalSteal() {
    StealSignal.store(true, std::memory_order_release);
    Local.signalLimit();
  }

  /// \returns true while a steal signal is set and not yet taken by the
  /// allocation slow path.
  bool stealSignalled() const {
    return StealSignal.load(std::memory_order_acquire);
  }

  /// Aborts unless every registered root slot holds nil, a tagged int, or a
  /// pointer to a live object in this vproc's local heap or the global
  /// heap. Run before every forced collection under GCConfig::StressGC;
  /// catches the unrooted Values the raw API invited. Cold path.
  void debugCheckShadowStack() const;

  //===--------------------------------------------------------------------===//
  // Roots
  //===--------------------------------------------------------------------===//

  /// RootScope slot slabs, in scope-nesting order: every scoped root
  /// lives here. Each live RootScope contributes its inline slab plus
  /// any overflow slabs it grew; the collectors enumerate
  /// Slots[0..Count) of every slab here alongside the lifetime roots
  /// (forEachVProcRoot). Only RootScope pushes and pops it.
  std::vector<RootSlab *> SlabStack;

  /// Recycled overflow slabs (chained through RootSlab::NextFree), so
  /// deep scopes stop paying the heap allocation after the first growth.
  RootSlab *SlabFreeList = nullptr;

  /// Proxy objects owned by this vproc (see Proxy.h). Entries point at
  /// the proxy object's first data word in the global heap.
  std::vector<Word *> ProxyTable;

  GCStats Stats;

  /// Registers \p Slot (storage outliving every RootScope it may
  /// overlap, e.g. a runtime structure's head) as a root until
  /// removeLifetimeRoot. Unordered with respect to RootScope nesting:
  /// scopes never read or resize this list.
  void addLifetimeRoot(Value *Slot) { LifetimeRoots.push_back(Slot); }

  /// Deregisters a slot added by addLifetimeRoot; aborts if it is absent.
  void removeLifetimeRoot(Value *Slot);

  /// The registered lifetime root slots (collectors, root checker).
  const std::vector<Value *> &lifetimeRoots() const { return LifetimeRoots; }

  /// Total registered root slots: lifetime roots plus every live slab's
  /// occupied slots (the tests' scope-balance assertions).
  std::size_t numRegisteredRootSlots() const {
    std::size_t N = LifetimeRoots.size();
    for (const RootSlab *Slab : SlabStack)
      N += Slab->Count;
    return N;
  }

  //===--------------------------------------------------------------------===//
  // Internal state shared with the collector implementation files.
  //===--------------------------------------------------------------------===//

  /// This vproc's current global-heap chunk (null until first use).
  Chunk *CurChunk = nullptr;

  /// Global-heap bytes this vproc has allocated since the last completed
  /// global collection. Owner-bumped (uncontended) in globalReserve and
  /// summed lazily by the watermark trigger, corobase-style; reset by
  /// the finishing collection's leader.
  std::atomic<uint64_t> GlobalAllocSinceCycle{0};

  /// Bump-allocates an object shell in the global heap, acquiring chunks
  /// as needed. Used by the major collector, promotion, and the direct
  /// global allocation paths. Objects larger than a standard chunk get a
  /// dedicated oversized chunk.
  Word *globalAllocObject(uint16_t Id, uint64_t LenWords);

  /// Reserves footprint words in the global heap without writing a
  /// header (global GC copies whole objects). \p UsedChunk receives the
  /// chunk that satisfied the request: usually CurChunk, or a dedicated
  /// oversized chunk for very large objects.
  Word *globalReserve(uint64_t FootprintWords, Chunk **UsedChunk);

  /// Trigger check after \p JustAllocatedBytes landed in the global
  /// heap (direct allocation, promotion, or a major collection's copy):
  /// the classic active-bytes threshold in STW mode, or the stride-gated
  /// allocation watermark in concurrent mode.
  void maybeTriggerGlobalGC(uint64_t JustAllocatedBytes);

  /// Re-zeroes the allocation limit, after a collection restored it, if
  /// a signal is still owed: a pending rendezvous or an untaken steal
  /// signal. Without this a collection would swallow the signal and the
  /// request would wait for the next poll.
  void rearmLimitSignal();

private:
  friend class GCWorld;
  friend class ConcurrentMark;
  friend struct gcinternal::HeapAccess;

  Chunk *acquireChunkCounted();
  Word *allocLocalObject(uint16_t Id, uint64_t LenWords);
  Word *allocSlowPath(uint16_t Id, uint64_t LenWords);
  Value allocVectorSlow(const Value *Elems, std::size_t N);
  Value allocVectorFillSlow(std::size_t N, Value Fill);
  void stressGCBeforeAlloc();
  bool vectorIsOversized(std::size_t N) const;
  /// Slow-path entry: takes the steal flag, restores a zeroed limit, and
  /// answers the steal mailbox through the steal hook if the flag was
  /// set.
  void takeLimitSignal();

  GCWorld &World;
  unsigned Id;
  CoreId Core;
  NodeId Node;
  NodeId LocalHeapHome;
  void *LocalMem;
  LocalHeap Local;
  /// Root slots registered for a structure's lifetime (addLifetimeRoot).
  std::vector<Value *> LifetimeRoots;
  uint64_t StressTick = 0; ///< StressGCPeriod schedule position
  /// Forced collections so far (the major and global stress schedules).
  uint64_t StressCollections = 0;
  /// Bytes accumulated toward the next watermark summation (owner-only;
  /// the summation itself is the expensive part the stride amortizes).
  uint64_t WatermarkResidue = 0;
  /// Set by a thief (signalSteal), taken by the owner's slow path.
  std::atomic<bool> StealSignal{false};
};

//===----------------------------------------------------------------------===//
// GCWorld
//===----------------------------------------------------------------------===//

class GCWorld {
public:
  /// Builds the shared memory system and \p NumVProcs vproc heaps,
  /// assigning vprocs to cores sparsely across \p Topo's nodes.
  GCWorld(const GCConfig &Config, const Topology &Topo, unsigned NumVProcs);
  ~GCWorld();

  GCWorld(const GCWorld &) = delete;
  GCWorld &operator=(const GCWorld &) = delete;

  const GCConfig &config() const { return Config; }
  const Topology &topology() const { return Topo; }
  unsigned numVProcs() const { return static_cast<unsigned>(Heaps.size()); }
  VProcHeap &heap(unsigned VProcId) { return *Heaps[VProcId]; }

  ObjectDescriptorTable &descriptors() { return Descs; }
  const ObjectDescriptorTable &descriptors() const { return Descs; }
  MemoryBanks &banks() { return Banks; }
  AllocPolicy &policy() { return Policy; }
  TrafficMatrix &traffic() { return Traffic; }
  ChunkManager &chunks() { return Chunks; }

  /// Registers the runtime's extra per-vproc root enumerator.
  void setVProcRootEnumerator(VProcRootEnumerator Fn, void *Ctx) {
    VProcRoots = Fn;
    VProcRootsCtx = Ctx;
  }
  /// Registers the runtime's global root enumerator.
  void setGlobalRootEnumerator(GlobalRootEnumerator Fn, void *Ctx) {
    GlobalRoots = Fn;
    GlobalRootsCtx = Ctx;
  }

  /// Invokes the registered per-vproc root enumerator (collector use).
  void enumerateExtraVProcRoots(unsigned VProcId, RootSlotVisitor Visit,
                                void *VisitorCtx) {
    if (VProcRoots)
      VProcRoots(VProcId, Visit, VisitorCtx, VProcRootsCtx);
  }

  /// Invokes the registered global root enumerator (collector use).
  void enumerateGlobalRoots(RootSlotVisitor Visit, void *VisitorCtx) {
    if (GlobalRoots)
      GlobalRoots(Visit, VisitorCtx, GlobalRootsCtx);
  }

  /// Requests a stop-the-world global collection: flips the phase word
  /// to StwPending and zeroes every vproc's allocation limit (Section
  /// 3.4, steps 1-2), then invokes the wakeup hook so parked vprocs
  /// reach their safe points immediately. No-op when any collection is
  /// already pending or running. The winning request stamps its time,
  /// from which each vproc's time-to-safepoint is measured
  /// (GCStats::GlobalSafepointWait).
  void requestGlobalGC();

  /// Starts a mostly-concurrent mark cycle: flips the phase word to
  /// ConcInit and signals every vproc to join the initial snapshot
  /// rendezvous at its next safe point. \returns false (and does
  /// nothing) when a collection is already pending or running.
  bool startConcurrentMark();

  /// Registers the runtime's wakeup hook: invoked (from any thread) when
  /// every vproc must promptly observe collector state -- at the global
  /// GC trigger and at its completion. The runtime wires this to the
  /// ParkLot's broadcast doorbell; without a hook the vprocs' bounded
  /// park backstops provide the (slower) fallback.
  void setWakeupHook(void (*Fn)(void *), void *Ctx) {
    WakeupHook = Fn;
    WakeupHookCtx = Ctx;
  }

  /// Invokes the registered wakeup hook, if any (collector use).
  void notifyWakeupHook() {
    if (WakeupHook)
      WakeupHook(WakeupHookCtx);
  }

  /// Registers the runtime's concurrent-mark hook: invoked by the cycle
  /// leader (on its own vproc thread, world still stopped) right after
  /// the phase flips to ConcMark. The runtime wires this to spawn
  /// per-node marker tasks through the scheduler; without a hook the
  /// mutators' safe-point assists do all of the tracing.
  void setConcurrentMarkHook(void (*Fn)(void *, unsigned LeaderVProc),
                             void *Ctx) {
    ConcMarkHook = Fn;
    ConcMarkHookCtx = Ctx;
  }

  /// Invokes the registered concurrent-mark hook, if any (collector use).
  void notifyConcurrentMarkHook(unsigned LeaderVProc) {
    if (ConcMarkHook)
      ConcMarkHook(ConcMarkHookCtx, LeaderVProc);
  }

  /// Registers the runtime's steal hook: invoked on a vproc's own thread
  /// from its allocation slow path after a steal signal
  /// (VProcHeap::signalSteal), so a running task answers a thief's
  /// mailbox at its next allocation. The runtime wires this to
  /// Scheduler::serviceSteal.
  void setStealHook(void (*Fn)(void *, unsigned VProcId), void *Ctx) {
    StealHook = Fn;
    StealHookCtx = Ctx;
  }

  /// Invokes the registered steal hook, if any (slow-path use).
  void notifyStealHook(unsigned VProcId) {
    if (StealHook)
      StealHook(StealHookCtx, VProcId);
  }

  /// Home NUMA node of the memory backing \p V: the backing chunk's home
  /// for global objects, the backing bank of the owning vproc's local
  /// heap for local objects, \p Fallback for nil and tagged ints. The
  /// runtime uses this to derive Task affinity hints ("tasks chase their
  /// data"); O(NumVProcs) worst case, so derive hints once per job, not
  /// per element.
  NodeId homeNodeOf(Value V, NodeId Fallback);

  /// Current global-collection phase.
  GCPhase phase() const { return Phase.load(std::memory_order_acquire); }

  /// \returns true if a stop-the-world collection has been requested and
  /// not yet entered its rendezvous-complete state.
  bool globalGCPending() const { return phase() == GCPhase::StwPending; }

  /// \returns true while any global collection -- stop-the-world or a
  /// concurrent mark cycle in any of its phases -- is pending or
  /// running.
  bool collectionInProgress() const { return phase() != GCPhase::Idle; }

  /// \returns true while a phase that needs every vproc at a barrier is
  /// pending: a stop-the-world request, or a concurrent cycle's initial
  /// or terminal rendezvous. ConcMark itself needs no barrier -- mutators
  /// run freely there -- so schedulers should not treat it as urgent.
  bool rendezvousRequested() const {
    GCPhase P = phase();
    return P == GCPhase::StwPending || P == GCPhase::ConcInit ||
           P == GCPhase::ConcTerm;
  }

  /// \returns true while a concurrent cycle's snapshot is being held
  /// (deletion barrier active: from the initial rendezvous until the
  /// terminal rendezvous turns it off).
  bool satbActive() const {
    return SatbActive.load(std::memory_order_relaxed);
  }

  /// Number of completed global collections (both flavors).
  uint64_t globalGCCount() const {
    return GlobalGCsCompleted.load(std::memory_order_relaxed);
  }

  /// Number of completed concurrent mark cycles (subset of
  /// globalGCCount()).
  uint64_t concurrentGCCount() const {
    return ConcurrentGCsCompleted.load(std::memory_order_relaxed);
  }

  /// Current trigger threshold in bytes (grows adaptively if live data
  /// exceeds the configured trigger).
  uint64_t globalGCThresholdBytes() const {
    return GlobalGCThreshold.load(std::memory_order_relaxed);
  }

  /// The largest live size (active global-heap bytes) left after any
  /// completed global collection; 0 before the first.
  uint64_t peakLiveBytes() const {
    return PeakLiveBytes.load(std::memory_order_relaxed);
  }

  /// Aggregated statistics across all vprocs.
  GCStats aggregateStats() const;

  /// Well-known object IDs registered by higher layers (the runtime's
  /// rope nodes, the Barnes-Hut quadtree). The collector itself never
  /// interprets these; they are stored here so value-level libraries get
  /// O(1) access to their IDs.
  uint16_t RopeNodeId = 0;
  uint16_t BhNodeId = 0;

  /// Typed-object-id registry for the handle layer (gc/Handles.h):
  /// object IDs are world state, so ObjectType<T> binds T's id here
  /// under a key unique per C++ type. Like descriptor registration,
  /// binding must finish before vprocs start running; lookups afterwards
  /// are lock-free reads.
  uint16_t typedObjectId(const void *TypeKey) const {
    auto It = TypedObjectIds.find(TypeKey);
    return It == TypedObjectIds.end() ? 0 : It->second;
  }
  void bindTypedObjectId(const void *TypeKey, uint16_t Id) {
    TypedObjectIds.emplace(TypeKey, Id);
  }

  /// Watermark summation stride (corobase's WATERMARK): a vproc re-sums
  /// everyone's allocation counters only once per this many bytes of its
  /// own global allocation.
  static constexpr uint64_t WatermarkStrideBytes = 64 * 1024;

private:
  friend class VProcHeap;
  friend void globalGCParticipate(VProcHeap &H);
  friend bool concurrentMarkSome(VProcHeap &H, unsigned Budget);
  friend class GlobalCollection;
  friend class ConcurrentMark;

  /// Leader-only, at the end of a global collection of either flavor:
  /// records the \p Live bytes it left and adapts the trigger to them.
  void noteLiveAfterCollection(uint64_t Live);

  GCConfig Config;
  Topology Topo;
  ObjectDescriptorTable Descs;
  MemoryBanks Banks;
  AllocPolicy Policy;
  TrafficMatrix Traffic;
  ChunkManager Chunks;
  std::vector<std::unique_ptr<VProcHeap>> Heaps;

  // Global-collection coordination.
  std::atomic<GCPhase> Phase{GCPhase::Idle};
  std::atomic<bool> SatbActive{false};
  std::atomic<uint64_t> GlobalGCsCompleted{0};
  /// When the pending stop-the-world collection was requested, in
  /// steady-clock nanoseconds; 0 until the winning requester stamps it
  /// and again once the collection completes. Each participant's
  /// arrival minus this is its time-to-safepoint.
  std::atomic<int64_t> GlobalRequestNanos{0};
  std::atomic<uint64_t> ConcurrentGCsCompleted{0};
  std::atomic<uint64_t> GlobalGCThreshold;
  /// The largest active-bytes total any completed global collection has
  /// left (noteLiveAfterCollection).
  std::atomic<uint64_t> PeakLiveBytes{0};
  Barrier GCBarrier;
  std::unique_ptr<GlobalCollection, GlobalCollectionDeleter> GCState;
  std::unique_ptr<ConcurrentMark, ConcurrentMarkDeleter> CMState;

  VProcRootEnumerator VProcRoots = nullptr;
  void *VProcRootsCtx = nullptr;
  GlobalRootEnumerator GlobalRoots = nullptr;
  void *GlobalRootsCtx = nullptr;
  void (*WakeupHook)(void *) = nullptr;
  void *WakeupHookCtx = nullptr;
  void (*ConcMarkHook)(void *, unsigned) = nullptr;
  void *ConcMarkHookCtx = nullptr;
  void (*StealHook)(void *, unsigned) = nullptr;
  void *StealHookCtx = nullptr;

  /// ObjectType<T> tag address -> object id (see typedObjectId).
  std::unordered_map<const void *, uint16_t> TypedObjectIds;
};

//===----------------------------------------------------------------------===//
// Object accessors (used by the runtime, workloads, and tests)
//===----------------------------------------------------------------------===//

/// \returns the header of the object \p V points at. A promotion husk
/// (a local object whose header promote() replaced with a forwarding
/// word) answers with its global copy's header: rooted slots keep
/// pointing at husks until the next local collection repairs them, and
/// a steal answered mid-task can promote what the running code holds.
/// The husk's fields stay intact, so only header reads need the hop.
inline Word objectHeader(Value V) {
  Word Hdr = headerOf(V.asPtr());
  if (MANTI_UNLIKELY(isForwardWord(Hdr)))
    Hdr = headerOf(reinterpret_cast<const Word *>(Hdr));
  return Hdr;
}

/// \returns the length in data words of the object \p V points at.
inline uint64_t objectLenWords(Value V) {
  return headerLenWords(objectHeader(V));
}

/// \returns the object ID of the object \p V points at.
inline uint16_t objectId(Value V) { return headerId(objectHeader(V)); }

/// Vector accessors.
inline uint64_t vectorLen(Value V) { return objectLenWords(V); }
inline Value vectorGet(Value V, uint64_t Index) {
  assert(Index < vectorLen(V) && "vector index out of range");
  return Value::fromBits(V.asPtr()[Index]);
}
/// Initialization-time store; PML values are immutable once published,
/// so this must only be used before the vector escapes its allocator.
inline void vectorInit(Value V, uint64_t Index, Value Elem) {
  assert(Index < vectorLen(V) && "vector index out of range");
  V.asPtr()[Index] = Elem.bits();
}

/// Raw-object accessors.
inline void *rawData(Value V) { return V.asPtr(); }
inline uint64_t rawSizeBytes(Value V) { return objectLenWords(V) * 8; }

/// Mixed-object field accessors.
inline Value mixedGet(Value V, unsigned FieldWord) {
  assert(FieldWord < objectLenWords(V) && "field out of range");
  return Value::fromBits(V.asPtr()[FieldWord]);
}
inline Word mixedGetWord(Value V, unsigned FieldWord) {
  assert(FieldWord < objectLenWords(V) && "field out of range");
  return V.asPtr()[FieldWord];
}

//===----------------------------------------------------------------------===//
// Inline hot paths (safe-point poll, deletion barrier, bump allocation)
//===----------------------------------------------------------------------===//

namespace gcdetail {
/// The heap of the innermost live RootScope on this thread (Handles.h
/// maintains it). The handle layer's deletion barrier reads it so
/// Ref<T>/VecRef<T> slot overwrites need no heap argument at the call
/// site.
extern thread_local VProcHeap *CurrentSatbHeap;
} // namespace gcdetail

inline void VProcHeap::safePoint() {
  GCPhase P = World.Phase.load(std::memory_order_acquire);
  if (MANTI_LIKELY(P == GCPhase::Idle))
    return;
  if (P == GCPhase::StwPending) {
    globalGCParticipate(*this);
    return;
  }
  concurrentGCSafePoint(*this);
}

inline void VProcHeap::rearmLimitSignal() {
  if (World.rendezvousRequested() || stealSignalled())
    Local.signalLimit();
}

inline void VProcHeap::satbRecord(Value Old) {
  if (MANTI_UNLIKELY(Old.isPtr() && World.satbActive()))
    satbMarkOld(Old);
}

/// Deletion barrier on handle-slot overwrites (Ref<T>/VecRef<T>
/// assignment in Handles.h): before a rooted slot drops its old value,
/// record it so a running concurrent mark keeps its snapshot closed.
/// Initializing stores (no old pointer) skip the whole gate, keeping the
/// mutator fast path one predictable branch.
inline void satbRecordOverwrite(Value Old) {
  if (MANTI_LIKELY(!Old.isPtr()))
    return;
  VProcHeap *H = gcdetail::CurrentSatbHeap;
  if (MANTI_LIKELY(!H || !H->world().satbActive()))
    return;
  H->satbMarkOld(Old);
}

inline Word *VProcHeap::allocLocalObject(uint16_t Id, uint64_t LenWords) {
  if (MANTI_UNLIKELY(World.Config.StressGC))
    stressGCBeforeAlloc();
  Stats.BytesAllocatedLocal += (LenWords + 1) * sizeof(Word);
  if (Word *P = Local.tryAlloc(Id, LenWords))
    return P;
  return allocSlowPath(Id, LenWords);
}

inline Value VProcHeap::allocRaw(const void *Data, std::size_t Bytes) {
  uint64_t LenWords = std::max<uint64_t>(1, divideCeil(Bytes, sizeof(Word)));
  Word *Obj = allocLocalObject(IdRaw, LenWords);
  Obj[LenWords - 1] = 0; // zero the tail beyond Bytes
  if (Data)
    std::memcpy(Obj, Data, Bytes);
  else
    std::memset(Obj, 0, LenWords * sizeof(Word));
  return Value::fromPtr(Obj);
}

/// Vectors larger than a quarter of the local heap are allocated in the
/// global heap directly (the paper's workloads use rope-like segmented
/// structures for bulk data; this is the corresponding large-object
/// escape hatch).
inline bool VProcHeap::vectorIsOversized(std::size_t N) const {
  return (std::max<uint64_t>(1, N) + 1) * sizeof(Word) >
         World.Config.LocalHeapBytes / 4;
}

inline Value VProcHeap::allocVector(const Value *Elems, std::size_t N) {
  if (MANTI_UNLIKELY(vectorIsOversized(N)))
    return allocVectorSlow(Elems, N);
  uint64_t LenWords = std::max<uint64_t>(1, N);
  Word *Obj = allocLocalObject(IdVector, LenWords);
  Obj[LenWords - 1] = Value::nil().bits(); // N == 0 pads one nil word
  for (std::size_t I = 0; I < N; ++I)
    Obj[I] = Elems ? Elems[I].bits() : Value::nil().bits();
  return Value::fromPtr(Obj);
}

/// A pointer Fill must be rooted across the allocation, so only
/// non-pointer fills take the inline bump.
inline Value VProcHeap::allocVectorFill(std::size_t N, Value Fill) {
  if (MANTI_UNLIKELY(Fill.isPtr() || vectorIsOversized(N)))
    return allocVectorFillSlow(N, Fill);
  uint64_t LenWords = std::max<uint64_t>(1, N);
  Word *Obj = allocLocalObject(IdVector, LenWords);
  Obj[LenWords - 1] = Value::nil().bits();
  for (std::size_t I = 0; I < N; ++I)
    Obj[I] = Fill.bits();
  return Value::fromPtr(Obj);
}

} // namespace manti

#endif // MANTI_GC_HEAP_H
