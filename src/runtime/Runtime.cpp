//===- runtime/Runtime.cpp -------------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include "numa/NumaOS.h"
#include "runtime/Channel.h"
#include "runtime/ParkLot.h"
#include "runtime/Rope.h"
#include "runtime/Scheduler.h"
#include "support/Assert.h"
#include "support/Logging.h"

#include <mutex>

#include <pthread.h>
#include <sched.h>

using namespace manti;

namespace {

/// Body of a concurrent-marking task. One is spawned per NUMA node when a
/// cycle flips to ConcMark; the affinity hint steers each toward chunks
/// homed on its node. The task traces in bounded slices, polling between
/// them so it keeps answering steal requests and joins the terminal
/// rendezvous (inside poll) when the gray stack drains. A stale task from
/// an already-finished cycle no-ops on the phase check inside
/// concurrentMarkSome.
void markerTaskMain(Runtime &RT, VProc &VP, Task) {
  (void)RT;
  while (concurrentMarkSome(VP.heap(), /*Budget=*/1024))
    VP.poll();
  VP.poll();
}

} // namespace

Runtime::Runtime(const RuntimeConfig &Config, const Topology &Topo)
    : Config(Config), World(Config.GC, Topo, Config.NumVProcs) {
  registerRopeDescriptors(World);
  VProcs.reserve(Config.NumVProcs);
  for (unsigned I = 0; I < Config.NumVProcs; ++I)
    VProcs.push_back(std::make_unique<VProc>(*this, World.heap(I)));
  Lot = std::make_unique<ParkLot>(World.topology().numNodes());
  Sched = std::make_unique<Scheduler>(*this);

  World.setVProcRootEnumerator(&Runtime::enumerateVProcRootsThunk, this);
  World.setGlobalRootEnumerator(&Runtime::enumerateGlobalRootsThunk, this);
  // The global-GC trigger (and completion) rings the broadcast
  // doorbell: every parked vproc reaches its safe point immediately
  // instead of waiting out a park interval.
  World.setWakeupHook(
      [](void *LotPtr) { static_cast<ParkLot *>(LotPtr)->ringBroadcast(); },
      Lot.get());
  // Concurrent marking is driven by ordinary tasks: when a cycle's init
  // rendezvous flips to ConcMark, the leader (world still stopped at the
  // pre-release barrier, so owner-only spawn onto its own queue is safe)
  // seeds one marker per node.
  World.setConcurrentMarkHook(
      [](void *RTPtr, unsigned LeaderVProc) {
        Runtime *RT = static_cast<Runtime *>(RTPtr);
        VProc &Leader = RT->vproc(LeaderVProc);
        unsigned Nodes = RT->world().topology().numNodes();
        for (unsigned N = 0; N < Nodes; ++N) {
          Task T;
          T.Fn = &markerTaskMain;
          T.Affinity = static_cast<NodeId>(N);
          Leader.spawn(T);
        }
      },
      this);

  // A thief's steal signal is answered from the victim's allocation
  // slow path, so a running task hands over its queue at its next
  // allocation instead of at its next poll.
  World.setStealHook(
      [](void *RTPtr, unsigned VProcId) {
        Runtime *RT = static_cast<Runtime *>(RTPtr);
        RT->scheduler().serviceSteal(RT->vproc(VProcId));
      },
      this);

  // Initially "between runs": workers idle in the drained state.
  ShuttingDown.store(true, std::memory_order_release);
  for (unsigned I = 1; I < Config.NumVProcs; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
  if (Config.PinThreads) {
    // vproc 0 runs on the caller's thread: remember the caller's
    // affinity so the destructor can hand the thread back unpinned.
    CallerAffinitySaved =
        pthread_getaffinity_np(pthread_self(), sizeof(CallerAffinity),
                               &CallerAffinity) == 0;
    pinThread(World.heap(0).core());
  }
}

Runtime::~Runtime() {
  Terminating.store(true, std::memory_order_release);
  Lot->ringBroadcast(); // wake drain-parked workers to observe the flag
  for (std::thread &W : Workers)
    W.join();
  if (CallerAffinitySaved)
    (void)pthread_setaffinity_np(pthread_self(), sizeof(CallerAffinity),
                                 &CallerAffinity);
  MANTI_CHECK(RootProviders.empty(),
              "global-root providers (channels, stores) must be destroyed "
              "before the runtime");
}

void Runtime::pinThread(CoreId Core) {
  // Host topologies carry the probe's core -> OS-cpu map, so the vproc
  // lands on a cpu that really belongs to its node; recorded topologies
  // fold onto whatever the host has. Best effort either way: pinning
  // fails in restricted containers, which is fine.
  if (World.topology().hasCpuMap()) {
    (void)numaos::pinThisThread(World.topology().osCpuOfCore(Core));
    return;
  }
  unsigned HostCores = std::thread::hardware_concurrency();
  if (HostCores == 0)
    return;
  (void)numaos::pinThisThread(Core % HostCores);
}

void Runtime::workerLoop(unsigned Id) {
  if (Config.PinThreads)
    pinThread(World.heap(Id).core());
  VProc &VP = vproc(Id);

  uint64_t SeenEpoch = 0;
  bool Counted = true; // nothing to drain before the first run
  while (!Terminating.load(std::memory_order_acquire)) {
    uint64_t E = RunEpoch.load(std::memory_order_acquire);
    if (E != SeenEpoch) {
      SeenEpoch = E;
      Counted = false;
    }
    if (!ShuttingDown.load(std::memory_order_acquire)) {
      // Schedule until the run ends. run() cannot start the next run
      // before this vproc checks in below, so no epoch is missed.
      Sched->runUntil(
          VP,
          [](void *Ctx) {
            return !static_cast<Runtime *>(Ctx)->schedulerActive();
          },
          this);
      continue;
    }
    // Drain phase: count ourselves once, then wait for the next run or
    // termination (both broadcast), polling so pending collections
    // (which need every vproc) can finish.
    if (!Counted) {
      Counted = true;
      Sched->noteProgress(VP);
      Drained.fetch_add(1, std::memory_order_acq_rel);
      // run() waits for the last check-in parked on vproc 0's doorbell.
      Lot->ring(VProcs[0]->node());
    }
    Sched->blockOn(
        VP,
        [&] {
          return Terminating.load(std::memory_order_acquire) ||
                 RunEpoch.load(std::memory_order_acquire) != SeenEpoch;
        },
        /*RecordStats=*/false);
  }
}

void Runtime::run(MainFn Main, void *Ctx) {
  MANTI_CHECK(ShuttingDown.load(std::memory_order_acquire),
              "run() is not reentrant");
  Drained.store(0, std::memory_order_release);
  // Order matters: the active flag is published *before* the epoch
  // bump. A worker that acquires the new epoch therefore also sees
  // ShuttingDown == false; reading true afterwards can only mean the
  // run already ended, so its drain check-in is genuine. (The reverse
  // order let a worker see the new epoch with the stale true, check in
  // as "drained", and then keep scheduling -- racing the post-run stats
  // aggregation.)
  ShuttingDown.store(false, std::memory_order_release);
  RunEpoch.fetch_add(1, std::memory_order_acq_rel);
  // Run-epoch turnover: wake workers parked in the drain loop so the new
  // run starts scheduling immediately.
  Lot->ringBroadcast();

  VProc &VP0 = vproc(0);
  Main(*this, VP0, Ctx);

  // Main returned: all fork-join regions it created are complete. Drain:
  // every vproc checks in, and nobody leaves while a collection is
  // pending (a collection needs all vprocs at its barriers). blockOn
  // (not a bare park): each worker's check-in rings vproc 0's node, and
  // the predicate re-check inside the park protocol means the last
  // check-in cannot slip between our load and the wait and cost a full
  // backstop interval.
  ShuttingDown.store(true, std::memory_order_release);
  Drained.fetch_add(1, std::memory_order_acq_rel);
  Sched->blockOn(
      VP0,
      [&] {
        return Drained.load(std::memory_order_acquire) >= numVProcs() &&
               !World.collectionInProgress();
      },
      /*RecordStats=*/false);
  Sched->noteProgress(VP0);
}

SchedStats Runtime::aggregateSchedStats() const {
  return Sched->aggregateStats();
}

void Runtime::registerGlobalRoots(GlobalRootProvider *P) {
  std::lock_guard<SpinLock> Guard(RootProviderLock);
  RootProviders.push_back(P);
}

void Runtime::unregisterGlobalRoots(GlobalRootProvider *P) {
  std::lock_guard<SpinLock> Guard(RootProviderLock);
  for (std::size_t I = RootProviders.size(); I-- > 0;) {
    if (RootProviders[I] == P) {
      RootProviders[I] = RootProviders.back();
      RootProviders.pop_back();
      return;
    }
  }
  MANTI_UNREACHABLE("global-root provider was not registered");
}

void Runtime::enumerateVProcRootsThunk(unsigned VProcId, RootSlotVisitor V,
                                       void *VisitorCtx, void *EnumCtx) {
  Runtime *RT = static_cast<Runtime *>(EnumCtx);
  RT->vproc(VProcId).forEachSchedulerRoot(
      [&](Word *Slot) { V(Slot, VisitorCtx); });
}

void Runtime::enumerateGlobalRootsThunk(RootSlotVisitor V, void *VisitorCtx,
                                        void *EnumCtx) {
  Runtime *RT = static_cast<Runtime *>(EnumCtx);
  std::lock_guard<SpinLock> Guard(RT->RootProviderLock);
  for (GlobalRootProvider *P : RT->RootProviders)
    P->enumerateGlobalRoots(V, VisitorCtx);
}
