//===- runtime/ParkLot.h - per-node doorbells for parked vprocs ----------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one signaling path every doorbell park in the runtime goes
/// through. A ParkLot owns one Doorbell (support/Wait.h) per NUMA node,
/// with the Doorbell's lost-wakeup-free protocol. Idle vprocs, blocked
/// channel senders/receivers, selectRecv waiters and thieves awaiting an
/// answer park on their node's doorbell; whoever makes their condition
/// true rings that node instead of letting the sleeper run out a blind
/// timeout, and a whole-machine rendezvous (global-GC entry, run-epoch
/// turnover) rings every node and wakes all their waiters.
///
/// The ParkLot carries no data: every happens-before edge for the
/// *condition* (queue depths, mailbox state, channel Ready flags, the
/// global-GC pending flag) still comes from that state's own atomics.
/// The ParkLot only decides who sleeps and who is woken: a lost ring
/// would cost latency (the parker's bounded backstop), never correctness.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_RUNTIME_PARKLOT_H
#define MANTI_RUNTIME_PARKLOT_H

#include "numa/Topology.h"
#include "support/Compiler.h"
#include "support/Wait.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace manti {

class ParkLot {
public:
  explicit ParkLot(unsigned NumNodes);

  ParkLot(const ParkLot &) = delete;
  ParkLot &operator=(const ParkLot &) = delete;

  /// Epoch snapshot taken by prepare(); consumed by cancel()/park().
  struct Token {
    uint32_t NodeEpoch;
  };

  /// Parker side, step 1: registers the caller as a waiter on node \p N
  /// and snapshots the epochs. Must be followed by exactly one cancel()
  /// or park() on the same node with the returned token.
  Token prepare(NodeId N);

  /// Parker side, step 2a: the wake condition already holds; deregister
  /// without sleeping.
  void cancel(NodeId N, Token T);

  /// Parker side, step 2b: sleeps until the node is rung (a broadcast
  /// rings every node) or \p MaxWait elapses (the bounded backstop).
  /// \returns true when ended by a ring, false on a clean timeout. When
  /// woken by a ring and \p RingLatencyNanos is non-null, it receives the
  /// elapsed time since that ring was sent (a wake-up-latency sample).
  bool park(NodeId N, Token T, std::chrono::microseconds MaxWait,
            uint64_t *RingLatencyNanos = nullptr);

  /// Ringer side: wakes ONE vproc parked on node \p N (one unit of work
  /// wants one worker; the woken vproc re-rings when it finds more, and
  /// waking a whole node per spawn would stampede an oversubscribed
  /// host). Call *after* publishing whatever made the condition true.
  /// \returns the number of waiters registered at ring time (0 = the
  /// ring was wasted).
  unsigned ring(NodeId N);

  /// ring(N) only when someone is parked on \p N, so the busy-system
  /// case costs a fence and one load. Call after publishing the
  /// condition: the fence pairs with the one a parker takes between
  /// prepare() and its condition re-check, so a parker this load misses
  /// sees the condition instead. \returns ring()'s count, 0 if skipped.
  unsigned ringParked(NodeId N) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return parkedOn(N) != 0 ? ring(N) : 0;
  }

  /// Rings every node doorbell, waking all their waiters: the global-GC
  /// rendezvous path (every parked vproc must reach its safe point now).
  void ringBroadcast();

  /// Waiters currently registered on node \p N (racy snapshot; ring
  /// policy uses it to skip futex syscalls for empty nodes).
  unsigned parkedOn(NodeId N) const { return Bells[N].Bell.waiters(); }

  unsigned numNodes() const { return NumNodes; }

private:
  /// One node's doorbell plus its ring stamp, padded to a cache line so
  /// parkers on different nodes never ping-pong a shared line.
  struct alignas(CacheLineSize) NodeBell {
    Doorbell Bell;
    std::atomic<uint64_t> LastRingNanos{0}; ///< steady-clock ring stamp
  };

  unsigned NumNodes;
  std::unique_ptr<NodeBell[]> Bells;
};

} // namespace manti

#endif // MANTI_RUNTIME_PARKLOT_H
