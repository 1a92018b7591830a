//===- runtime/Runtime.h - the Manticore-style runtime system -------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hardware-abstraction level of Section 2.2: hosts one vproc per
/// pthread, pins threads (best effort) to the cores the topology's
/// sparse assignment chose, wires the scheduler's roots (ready queues,
/// in-flight steal batches, result cells) into the collector, and owns
/// process-wide structures (channel registry).
///
/// Usage:
/// \code
///   RuntimeConfig Cfg;
///   Cfg.NumVProcs = 4;
///   Runtime RT(Cfg, Topology::intelXeon32());
///   RT.run([](Runtime &RT, VProc &VP, void *) {
///     // parallel program, running as vproc 0
///   }, nullptr);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_RUNTIME_RUNTIME_H
#define MANTI_RUNTIME_RUNTIME_H

#include "gc/Heap.h"
#include "numa/Topology.h"
#include "runtime/VProc.h"
#include "support/SpinLock.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <sched.h> // cpu_set_t: the caller's affinity is restored on teardown

namespace manti {

class Channel;
class ParkLot;
class Scheduler;

/// Runtime-owned (C++) state that holds global-heap references -- a
/// channel's parked senders, a KV store's entry table -- implements
/// this and registers with Runtime::registerGlobalRoots. The global
/// collector's leader enumerates every provider while the world is
/// stopped at the GC barriers.
class GlobalRootProvider {
public:
  virtual ~GlobalRootProvider() = default;

  /// Calls \p Visit once per root slot. The visitor may rewrite the
  /// slot's word (forwarding). Runs with every vproc stopped, so no
  /// synchronization against mutators is needed.
  virtual void enumerateGlobalRoots(RootSlotVisitor Visit,
                                    void *VisitorCtx) = 0;
};

/// The scheduler itself has no knob: stealing is its only load
/// balancer, and its patience adapts on its own (runtime/Scheduler.h).
struct RuntimeConfig {
  GCConfig GC;
  unsigned NumVProcs = 2;
  /// Promote stolen environments at steal time (true, Manticore's lazy
  /// scheme) or at spawn time (false; ablation).
  bool LazyPromotion = true;
  /// Pin vproc threads to their assigned cores. With a host topology
  /// (Topology::host()) each vproc is pinned to the *probed OS cpu* of
  /// its core, so threads really sit on their node's silicon; recorded
  /// topologies fold core ids onto whatever cpus the host has. Best
  /// effort either way, and the constructing thread's original affinity
  /// is restored when the runtime is destroyed.
  bool PinThreads = true;
};

using MainFn = void (*)(Runtime &RT, VProc &VP, void *Ctx);

class Runtime {
public:
  Runtime(const RuntimeConfig &Config, const Topology &Topo);
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  const RuntimeConfig &config() const { return Config; }
  GCWorld &world() { return World; }
  unsigned numVProcs() const { return static_cast<unsigned>(VProcs.size()); }
  VProc &vproc(unsigned Id) { return *VProcs[Id]; }

  /// The work-stealing policy layer (victim selection, batching, idle
  /// back-off).
  Scheduler &scheduler() { return *Sched; }

  /// The per-node doorbells every blocking site parks on.
  ParkLot &parkLot() { return *Lot; }

  /// Sum of every vproc's scheduler statistics (call while quiescent).
  SchedStats aggregateSchedStats() const;

  /// Executes \p Main as vproc 0 on the calling thread, with the worker
  /// threads scheduling in parallel, and returns once \p Main has
  /// returned, all vprocs have drained, and no collection is pending.
  /// May be called repeatedly (sequentially).
  void run(MainFn Main, void *Ctx);

  /// True while run() wants workers to keep scheduling.
  bool schedulerActive() const {
    return !ShuttingDown.load(std::memory_order_acquire);
  }

  bool lazyPromotion() const { return Config.LazyPromotion; }

  /// Global-root provider registry (channels, service-layer stores).
  /// Providers must unregister before the runtime is destroyed.
  void registerGlobalRoots(GlobalRootProvider *P);
  void unregisterGlobalRoots(GlobalRootProvider *P);

private:
  static void enumerateVProcRootsThunk(unsigned VProcId, RootSlotVisitor V,
                                       void *VisitorCtx, void *EnumCtx);
  static void enumerateGlobalRootsThunk(RootSlotVisitor V, void *VisitorCtx,
                                        void *EnumCtx);
  void workerLoop(unsigned Id);
  void pinThread(CoreId Core);

  RuntimeConfig Config;
  GCWorld World;
  std::vector<std::unique_ptr<VProc>> VProcs;
  std::unique_ptr<ParkLot> Lot; ///< before Sched: the Scheduler binds it
  std::unique_ptr<Scheduler> Sched;
  std::vector<std::thread> Workers;

  /// The constructing thread's affinity before PinThreads pinned it to
  /// vproc 0's core; the destructor restores it (the caller's thread
  /// outlives the runtime, the pin should not).
  cpu_set_t CallerAffinity{};
  bool CallerAffinitySaved = false;

  std::atomic<bool> ShuttingDown{false};
  std::atomic<bool> Terminating{false};
  std::atomic<unsigned> Drained{0};
  std::atomic<uint64_t> RunEpoch{0};

  SpinLock RootProviderLock;
  std::vector<GlobalRootProvider *> RootProviders;
};

} // namespace manti

#endif // MANTI_RUNTIME_RUNTIME_H
