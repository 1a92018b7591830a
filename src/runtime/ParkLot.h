//===- runtime/ParkLot.h - per-node doorbells for parked vprocs ----------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one signaling path every blocking site in the runtime goes
/// through. A ParkLot owns one *doorbell* per NUMA node -- a futex-style
/// atomic epoch word plus a waiter count -- and a global *broadcast*
/// word for whole-machine rendezvous (global-GC entry, run-epoch
/// turnover). Idle vprocs, blocked channel senders/receivers, and
/// selectRecv waiters park on their node's doorbell; whoever makes their
/// condition true rings that node (or broadcasts) instead of letting the
/// sleeper run out a blind timeout.
///
/// Parking protocol (lost-wakeup-free):
///
///   1. prepare(N) increments the node's waiter count (seq_cst) and then
///      snapshots the node and broadcast epochs.
///   2. The caller re-checks its wake condition. If it already holds, it
///      cancel()s; otherwise it park()s with the token.
///   3. park() re-reads both epochs and sleeps on the node word only if
///      neither moved since the snapshot, with a bounded timeout as a
///      backstop.
///
/// ring(N) always bumps the node epoch (seq_cst) *after* the caller
/// published whatever made the condition true, then wakes the futex when
/// waiters are present. The seq_cst pairing makes the race two-sided: a
/// ringer either observes the waiter count (and wakes the futex), or the
/// parker observes the bumped epoch (and never sleeps). A ring that
/// lands between the parker's condition re-check and its futex wait
/// fails the futex's value comparison, so no interleaving sleeps through
/// a ring.
///
/// The doorbell carries no data: every happens-before edge for the
/// *condition* (queue depths, mailbox state, channel Ready flags, the
/// global-GC pending flag) still comes from that state's own atomics.
/// The ParkLot only decides who sleeps and who is woken: a lost ring
/// would cost latency (the parker's bounded backstop), never correctness.
///
/// One structure here *does* carry data: the per-node **shed bay**, the
/// push side of victim-initiated rebalancing. A vproc whose queue runs
/// deep publishes a batch of already-promoted tasks into a starved
/// node's bay and then rings that node's doorbell (publish *before*
/// ring, the same order every ring site follows); a woken vproc claims
/// the batch from its own node's bay at its next idle step. The bay is
/// the node-granular complement of the steal mailbox: steals are
/// thief-initiated and vproc-to-vproc, sheds are victim-initiated and
/// addressed to whichever of the node's vprocs wakes first. Bay slots
/// hold GC-managed environments, so the Runtime enumerates every bay as
/// a global root (the tasks were promoted before publication, so minor
/// collections never move them; the global collector updates the slots
/// in place).
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_RUNTIME_PARKLOT_H
#define MANTI_RUNTIME_PARKLOT_H

#include "numa/Topology.h"
#include "runtime/Task.h"
#include "support/Compiler.h"
#include "support/SpinLock.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

namespace manti {

class ParkLot {
public:
  explicit ParkLot(unsigned NumNodes);

  ParkLot(const ParkLot &) = delete;
  ParkLot &operator=(const ParkLot &) = delete;

  /// Epoch snapshot taken by prepare(); consumed by cancel()/park().
  struct Token {
    uint32_t NodeEpoch;
    uint32_t BroadcastEpoch;
    bool Claimable;
  };

  /// Parker side, step 1: registers the caller as a waiter on node \p N
  /// and snapshots the epochs. Must be followed by exactly one cancel()
  /// or park() on the same node with the returned token. \p Claimable
  /// marks an *idle-ladder* parker -- one that will claim the node's
  /// shed bay when woken. Channel-blocked parkers pass false: they
  /// cannot run arbitrary tasks, so shed targeting must not count them
  /// (a batch shed at a node whose only waiters are channel-blocked
  /// would strand until some other vproc went idle).
  Token prepare(NodeId N, bool Claimable = true);

  /// Parker side, step 2a: the wake condition already holds; deregister
  /// without sleeping.
  void cancel(NodeId N, Token T);

  /// Parker side, step 2b: sleeps until the node is rung, a broadcast
  /// lands, or \p MaxWait elapses (the bounded backstop). \returns true
  /// when ended by a ring, false on a clean timeout. When woken by a
  /// ring and \p RingLatencyNanos is non-null, it receives the elapsed
  /// time since that ring was sent (a wake-up-latency sample).
  bool park(NodeId N, Token T, std::chrono::microseconds MaxWait,
            uint64_t *RingLatencyNanos = nullptr);

  /// Ringer side: wakes ONE vproc parked on node \p N (one unit of work
  /// wants one worker; the woken vproc re-rings when it finds more, and
  /// waking a whole node per spawn would stampede an oversubscribed
  /// host). Call *after* publishing whatever made the condition true.
  /// \returns the number of waiters registered at ring time (0 = the
  /// ring was wasted).
  unsigned ring(NodeId N);

  /// Rings the broadcast word and every node doorbell: the global-GC
  /// rendezvous path (every parked vproc must reach its safe point now).
  void ringBroadcast();

  /// Waiters currently registered on node \p N (racy snapshot; ring
  /// policy uses it to skip futex syscalls for empty nodes).
  unsigned parkedOn(NodeId N) const {
    return Bells[N].Waiters.load(std::memory_order_seq_cst);
  }

  /// The subset of parkedOn(N) that are idle-ladder (bay-claiming)
  /// parkers; shed targeting reads this, so work is only pushed where
  /// somebody will pick it up.
  unsigned idleParkedOn(NodeId N) const {
    return Bells[N].IdleWaiters.load(std::memory_order_seq_cst);
  }

  unsigned numNodes() const { return NumNodes; }

  //===--------------------------------------------------------------------===//
  // Shed bay: the push-side rebalance handshake
  //===--------------------------------------------------------------------===//

  /// Shedder side, step 1: appends \p Count tasks to node \p N's bay.
  /// Every task's environment must already live in the global heap (the
  /// shedder promoted it out of its local heap -- only the owner may
  /// copy from one). Follow with ring(N) so a parked vproc comes to
  /// claim; the bay's own lock publishes the tasks, the ring only cuts
  /// the wait short.
  void publishShed(NodeId N, const Task *Tasks, unsigned Count);

  /// Claimer side: pops up to \p Max of the oldest tasks from node
  /// \p N's bay into \p Out and returns the count (0 when the bay is
  /// empty or another claimer won the race). The caller must enqueue or
  /// run the tasks without an intervening safe point: between this copy
  /// and re-registration in a ready queue nothing roots them.
  unsigned claimShed(NodeId N, Task *Out, unsigned Max);

  /// Tasks currently parked in node \p N's bay (racy snapshot; shed
  /// targeting and the idle-park re-check read it without the lock).
  std::size_t shedDepth(NodeId N) const {
    return Bays[N].Depth.load(std::memory_order_relaxed);
  }

  /// Visits every bay-resident task's environment slot (global-GC root
  /// enumeration). Takes each bay's lock; callers run at a stop-the-world
  /// point, and no publisher or claimer holds a bay lock across a safe
  /// point, so this cannot deadlock against a parked mutator.
  template <typename FnT> void forEachShedRoot(FnT Fn) {
    for (unsigned N = 0; N < NumNodes; ++N) {
      std::lock_guard<SpinLock> Guard(Bays[N].Lock);
      for (Task &T : Bays[N].Tasks)
        Fn(reinterpret_cast<Word *>(&T.Env));
    }
  }

private:
  /// One doorbell: padded to a cache line so parkers on different nodes
  /// never ping-pong a shared line.
  struct alignas(CacheLineSize) Doorbell {
    std::atomic<uint32_t> Epoch{0};   ///< bumped by every ring
    std::atomic<uint32_t> Waiters{0}; ///< vprocs between prepare and wake
    std::atomic<uint32_t> IdleWaiters{0}; ///< ... that would claim the bay
    std::atomic<uint64_t> LastRingNanos{0}; ///< steady-clock ring stamp
  };

  /// One shed bay: a lock-protected FIFO of rebalanced tasks plus a
  /// lock-free depth estimate, padded like the doorbells so bays on
  /// different nodes never share a line.
  struct alignas(CacheLineSize) ShedBay {
    SpinLock Lock;
    std::deque<Task> Tasks;              ///< oldest first
    std::atomic<std::size_t> Depth{0};   ///< Tasks.size(), lock-free view
  };

  unsigned NumNodes;
  std::unique_ptr<Doorbell[]> Bells;
  std::unique_ptr<ShedBay[]> Bays;
  Doorbell Broadcast;
};

} // namespace manti

#endif // MANTI_RUNTIME_PARKLOT_H
