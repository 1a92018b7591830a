//===- runtime/Scheduler.cpp -----------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "runtime/Scheduler.h"

#include "numa/TrafficMatrix.h"
#include "runtime/Runtime.h"
#include "support/Assert.h"
#include "support/Logging.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace manti;

namespace {

/// Idle-ladder shape: the first rungs retry immediately (the caller's
/// poll loop is the spin), the next rungs yield, and everything beyond
/// parks on the node doorbell in bounded, exponentially growing waits.
constexpr unsigned SpinRounds = 16;
constexpr unsigned YieldRounds = 32;
constexpr unsigned MinParkMicros = 8;
/// Park backstop: a ring ends the wait immediately, so this bound only
/// matters when a wake-up signal has no ring (e.g. a join counter
/// hitting zero). Small enough that such a vproc still reaches its next
/// safe point promptly.
constexpr unsigned MaxParkMicros = 256;

/// blockOn's poll+yield spin before the first doorbell park: long
/// enough that a fast channel partner is caught without a futex round
/// trip, short enough that a genuinely blocked vproc stops burning CPU.
constexpr unsigned BlockSpinRounds = 48;

/// noteSpawn escalates a wasted local ring to the nearest parked remote
/// node only once the spawner's queue has at least this many tasks (the
/// local vprocs are saturated and there is work to spare).
constexpr std::size_t RemoteRingDepth = 4;

/// Steal rounds per adaptive-patience window: long enough that one
/// unlucky probe cannot whipsaw the patience, short enough that a phase
/// change (a neighborhood going dry) is answered within a few dozen
/// rounds.
constexpr unsigned PatienceWindow = 32;

/// Remote-steal throttle: a thief probes its own node every round, but
/// proximity tier k unlocks only after k * Patience consecutive failed
/// rounds, so a node's own vprocs get first claim on new work before
/// remote thieves converge on it. Each thief's patience starts at
/// PatienceSeed and adapts within [PatienceMin, PatienceMax]: never
/// reach remote tiers with less delay than PatienceMin rounds, never
/// throttle them harder than PatienceMax.
constexpr unsigned PatienceSeed = 64;
constexpr unsigned PatienceMin = 8;
constexpr unsigned PatienceMax = 512;

} // namespace

Scheduler::Scheduler(Runtime &RT)
    : RT(RT), Lot(RT.parkLot()) {
  unsigned N = RT.numVProcs();
  Backoff.resize(N);
  for (BackoffState &B : Backoff)
    B.Patience = PatienceSeed;
  Proximity.resize(N);

  // Group the other vprocs by the node-distance tiers the topology
  // reports: tier 0 = same node, then increasing link-hop distance.
  const Topology &Topo = RT.world().topology();
  for (unsigned V = 0; V < N; ++V) {
    std::vector<std::vector<NodeId>> NodeTiers =
        Topo.nodesByDistance(RT.vproc(V).node());
    for (const std::vector<NodeId> &Tier : NodeTiers) {
      std::vector<unsigned> VTier;
      for (NodeId Node : Tier)
        for (unsigned U = 0; U < N; ++U)
          if (U != V && RT.vproc(U).node() == Node)
            VTier.push_back(U);
      if (!VTier.empty())
        Proximity[V].push_back(std::move(VTier));
    }
  }

  // Ring-escalation order: from each vproc-hosting node, the *other*
  // nodes that host vprocs, nearest first.
  std::vector<bool> HasVProc(Topo.numNodes(), false);
  for (unsigned V = 0; V < N; ++V)
    HasVProc[RT.vproc(V).node()] = true;
  NodeOrder.resize(Topo.numNodes());
  for (NodeId From = 0; From < Topo.numNodes(); ++From) {
    for (const std::vector<NodeId> &Tier : Topo.nodesByDistance(From))
      for (NodeId To : Tier)
        if (To != From && HasVProc[To])
          NodeOrder[From].push_back(To);
  }
}

std::size_t Scheduler::tierLimit(const VProc &Thief) const {
  const BackoffState &B = Backoff[Thief.id()];
  return 1 + static_cast<std::size_t>(B.FailedRounds / B.Patience);
}

void Scheduler::notePatienceSample(VProc &VP, bool Success) {
  BackoffState &B = Backoff[VP.id()];
  ++B.WindowRounds;
  if (Success)
    ++B.WindowHits;
  if (B.WindowRounds < PatienceWindow)
    return;
  // Multiplicative window update: a nearly-dry window (< 25% hits)
  // halves the patience so farther tiers unlock sooner; a reliably fed
  // window (>= 75%) doubles it so this thief keeps feeding from its own
  // neighborhood. The dead band in between leaves the value alone.
  unsigned Old = B.Patience;
  if (B.WindowHits * 4 < B.WindowRounds)
    B.Patience = std::max(PatienceMin, B.Patience / 2);
  else if (B.WindowHits * 4 >= B.WindowRounds * 3)
    B.Patience = static_cast<unsigned>(std::min<uint64_t>(
        PatienceMax, static_cast<uint64_t>(B.Patience) * 2));
  if (B.Patience < Old)
    ++VP.SStats.PatienceDrops;
  else if (B.Patience > Old)
    ++VP.SStats.PatienceRaises;
  B.WindowRounds = 0;
  B.WindowHits = 0;
}

template <typename TryFnT>
VProc *Scheduler::walkTiers(VProc &Thief, std::size_t TierLimit,
                            TryFnT Try) {
  std::size_t TierIdx = 0;
  for (const std::vector<unsigned> &Tier : Proximity[Thief.id()]) {
    if (TierIdx++ >= TierLimit)
      break;
    unsigned Sz = static_cast<unsigned>(Tier.size());
    unsigned Start =
        Sz > 1 ? static_cast<unsigned>(Thief.Rng.nextBelow(Sz)) : 0;
    for (unsigned I = 0; I < Sz; ++I) {
      VProc &Cand = RT.vproc(Tier[(Start + I) % Sz]);
      if (Cand.queueDepth() == 0)
        continue;
      if (Try(Cand))
        return &Cand;
    }
  }
  return nullptr;
}

VProc *Scheduler::pickVictim(VProc &Thief) {
  return walkTiers(Thief, tierLimit(Thief), [](VProc &) { return true; });
}

void Scheduler::runUntil(VProc &VP, bool (*Done)(void *), void *Ctx) {
  while (!Done(Ctx)) {
    VP.poll();
    if (VP.runOneLocal()) {
      noteProgress(VP);
      continue;
    }
    if (Done(Ctx))
      break;
    if (stealAndRun(VP)) {
      noteProgress(VP);
      continue;
    }
    idleBackoff(VP, /*RecordStats=*/true, Done, Ctx);
  }
}

bool Scheduler::stealAndRun(VProc &Thief) {
  unsigned N = RT.numVProcs();
  if (N <= 1)
    return false;

  BackoffState &B = Backoff[Thief.id()];
  // One round: walk the proximity tiers nearest-first, probing each
  // tier's members in a randomized rotation so same-node thieves spread
  // over their victims. Only loaded victims are worth a handshake; a
  // failed attempt (mailbox contention, or the victim drained before
  // answering) falls through to the next candidate. Tier k is probed
  // only once the thief has gone k * Patience rounds empty-handed:
  // steals reach farther out the longer the whole neighborhood stays
  // dry, so a freshly loaded queue feeds its own node first.
  if (walkTiers(Thief, tierLimit(Thief), [&](VProc &Cand) {
        return attemptSteal(Thief, Cand);
      })) {
    B.FailedRounds = 0;
    notePatienceSample(Thief, true);
    return true;
  }
  ++B.FailedRounds;
  ++Thief.SStats.FailedStealRounds;
  notePatienceSample(Thief, false);
  return false;
}

bool Scheduler::attemptSteal(VProc &Thief, VProc &Victim) {
  StealRequest &Req = Thief.MyRequest;
  // Plain stores, published by the CAS below (handshake step 1 in
  // VProc.h).
  Req.ThiefNode = Thief.node();
  Req.State.store(StealRequest::Posted, std::memory_order_relaxed);
  StealRequest *Expected = nullptr;
  if (!Victim.Mailbox.compare_exchange_strong(Expected, &Req,
                                              std::memory_order_acq_rel)) {
    Req.State.store(StealRequest::Idle, std::memory_order_relaxed);
    ++Thief.SStats.FailedStealAttempts;
    return false; // another thief got there first
  }
  // The victim answers at its next poll, or -- if it is running a task
  // -- at its next allocation: the steal signal zeroes its allocation
  // limit, so its slow path answers through the steal hook. If it is
  // parked (idle between polls, or blocked in a channel), the ring
  // keeps the handshake from waiting out a park backstop.
  Victim.heap().signalSteal();
  ringNode(Thief, Victim.node());

  // Wait for the victim's answer; keep answering our own mailbox and
  // joining pending collections so nothing deadlocks.
  for (;;) {
    int S = Req.State.load(std::memory_order_acquire);
    if (S == StealRequest::Filled) {
      // The acquire above pairs with the victim's release store of
      // Filled: the batch slots and Count are visible (step 2).
      unsigned Count = Req.Count;
      MANTI_CHECK(Count >= 1 && Count <= MaxTaskBatch,
                  "steal batch out of range");
      // Run the oldest task directly -- no safe point between here and
      // runTask's rooting -- and queue the rest (oldest first, so the
      // local LIFO end still prefers the newest work).
      Task First = Req.Stolen[0];
      for (unsigned I = 1; I < Count; ++I)
        Thief.enqueueStolen(Req.Stolen[I]);
      for (unsigned I = 0; I < Count; ++I)
        Req.Stolen[I] = Task();
      Req.Count = 0;
      Req.State.store(StealRequest::Idle, std::memory_order_release);
      Thief.SStats.TasksStolen += Count;
      ++Thief.SStats.StealBatches;
      if (Victim.node() == Thief.node())
        ++Thief.SStats.NodeLocalBatches;
      else
        ++Thief.SStats.CrossNodeBatches;
      // A multi-task batch leaves fresh work on this node's queue: ring
      // it so parked peers help with the batch.
      if (Count > 1)
        ringNode(Thief, Thief.node());
      MANTI_DEBUG("sched", "vp%u stole %u task(s) from vp%u (%s-node)",
                  Thief.id(), Count, Victim.id(),
                  Victim.node() == Thief.node() ? "same" : "cross");
      Thief.runTask(First);
      return true;
    }
    if (S == StealRequest::Failed) {
      Req.State.store(StealRequest::Idle, std::memory_order_release);
      ++Thief.SStats.FailedStealAttempts;
      return false;
    }
    serviceSteal(Thief);
    Thief.heap().safePoint();
    std::this_thread::yield();
  }
}

bool Scheduler::serviceSteal(VProc &Victim) {
  StealRequest *Req = Victim.Mailbox.load(std::memory_order_acquire);
  if (!Req)
    return false;
  // The mailbox is cleared before the answer is published, so the thief
  // (or another) may post again as soon as it sees Filled or Failed.
  Victim.Mailbox.store(nullptr, std::memory_order_release);
  std::size_t K = Victim.ReadyQ.size();
  if (K == 0) {
    Req->State.store(StealRequest::Failed, std::memory_order_release);
    return true;
  }
  // Steal the oldest ceil(k/2) tasks, up to MaxTaskBatch: they are the
  // largest units of pending work, and handing over several at once
  // amortizes the handshake and the promotion pauses. Within the batch,
  // tasks hinted at the thief's node go first (popForSteal) so hinted
  // work chases its data.
  unsigned Take = static_cast<unsigned>(
      std::min<std::size_t>((K + 1) / 2, MaxTaskBatch));
  uint64_t PromotedBefore = Victim.Heap.Stats.PromoteBytes;
  // Tasks staged in Req->Stolen are rooted by nobody until the thief
  // sees Filled; this is safe because nothing between popForSteal() and
  // the Filled store below can collect -- promote() copies and at most
  // *requests* a global GC (which only runs at safe points, and the
  // victim takes none inside this function).
  unsigned AffinityMatches = 0;
  Take = Victim.popForSteal(Req->ThiefNode, Take, Req->Stolen,
                            &AffinityMatches);
  for (unsigned I = 0; I < Take; ++I) {
    if (RT.lazyPromotion()) {
      // "a lazy promotion scheme for work stealing": only now -- when
      // the task provably leaves this vproc -- does its environment
      // move to the global heap, and only this vproc can legally copy
      // it out of its own local heap.
      Req->Stolen[I].Env = Victim.Heap.promote(Req->Stolen[I].Env);
    }
  }
  uint64_t EnvBytes = Victim.Heap.Stats.PromoteBytes - PromotedBefore;
  Req->Count = Take;

  ++Victim.SStats.BatchesServiced;
  Victim.SStats.TasksServiced += Take;
  Victim.SStats.StolenEnvBytes += EnvBytes;
  Victim.SStats.AffinityHandoffs += AffinityMatches;
  if (EnvBytes > 0)
    RT.world().traffic().record(Victim.node(), Req->ThiefNode, EnvBytes);

  // Handshake step 2: plain writes above, then the release store.
  Req->State.store(StealRequest::Filled, std::memory_order_release);
  return true;
}

unsigned Scheduler::parkMicrosFor(unsigned Step) {
  return std::min(MinParkMicros << std::min(Step, 5u), MaxParkMicros);
}

void Scheduler::doorbellPark(VProc &VP, unsigned Micros, bool RecordStats,
                             bool (*Pred)(void *), void *PredCtx) {
  // Doorbell park: snapshot the epochs, re-check every standing wake
  // condition, then wait. Any ring that lands after the snapshot --
  // including the global-GC broadcast -- makes the wait return
  // immediately, so the conditions checked here can never be missed.
  ParkLot::Token T = Lot.prepare(VP.node());
  // Fence pairing with ringNode: in the seq_cst fence order, either this
  // fence precedes the ringer's (so the ringer's waiter-count load sees
  // prepare's increment and rings) or the ringer's precedes this one
  // (so the re-checks below see the condition its ring site published).
  // Either way a condition set concurrently with this park cannot be
  // missed, which is what lets blockOn use long ring-driven parks.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if ((Pred && Pred(PredCtx)) ||
      VP.Mailbox.load(std::memory_order_acquire) != nullptr ||
      RT.world().rendezvousRequested()) {
    Lot.cancel(VP.node(), T);
    std::this_thread::yield();
    return;
  }
  auto Start = std::chrono::steady_clock::now();
  uint64_t RingLatency = 0;
  bool Rung = Lot.park(VP.node(), T, std::chrono::microseconds(Micros),
                       &RingLatency);
  auto End = std::chrono::steady_clock::now();
  if (RecordStats) {
    ++VP.SStats.Parks;
    VP.SStats.ParkNanos += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(End - Start)
            .count());
    if (Rung) {
      ++VP.SStats.RingWakeups;
      VP.SStats.RingWakeupNanos += RingLatency;
    } else {
      ++VP.SStats.ParkTimeouts;
    }
  }
}

void Scheduler::idleBackoff(VProc &VP, bool RecordStats, bool (*Pred)(void *),
                            void *PredCtx) {
  BackoffState &B = Backoff[VP.id()];
  unsigned R = ++B.IdleRounds;
  if (R <= SpinRounds)
    return; // spin rung: retry immediately, the caller's poll is the spin
  if (R <= SpinRounds + YieldRounds ||
      VP.Mailbox.load(std::memory_order_acquire) != nullptr ||
      RT.world().rendezvousRequested()) {
    // Yield rung -- also taken instead of parking whenever a thief or a
    // pending collection needs a prompt answer.
    std::this_thread::yield();
    return;
  }
  doorbellPark(VP, parkMicrosFor(R - SpinRounds - YieldRounds - 1),
               RecordStats, Pred, PredCtx);
}

bool Scheduler::ringNode(VProc &Ringer, NodeId Node) {
  ++Ringer.SStats.RingsSent;
  // Skip the epoch bump and futex when nobody is parked: the common
  // busy-system case stays a fence plus one atomic load. The fence
  // pairs with doorbellPark's (see there): every ring site publishes
  // its condition before calling here, so a parker that this load
  // misses is one whose pre-park re-check sees the condition instead.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (Lot.parkedOn(Node) != 0 && Lot.ring(Node) != 0)
    return true;
  ++Ringer.SStats.RingsWasted;
  return false;
}

void Scheduler::noteSpawn(VProc &VP, const Task &T) {
  // A hinted task rings its data's node first ("tasks chase their
  // data"); with no hint the spawner's own node is the target.
  if (T.Affinity != Task::NoAffinity && T.Affinity != VP.node() &&
      ringNode(VP, T.Affinity))
    return;
  // Hinted node saturated (or no hint): the task sits on *this* queue,
  // so parked local peers can steal it either way -- ring them rather
  // than leaving them to their backstops.
  if (ringNode(VP, VP.node()))
    return;
  // Local vprocs are all busy too. Once the queue runs deep enough that
  // this node cannot drain it alone, wake the nearest node with parked
  // vprocs -- the one remote ring a saturated node earns.
  if (VP.queueDepth() < RemoteRingDepth)
    return;
  for (NodeId Remote : NodeOrder[VP.node()]) {
    if (Lot.parkedOn(Remote) != 0) {
      ringNode(VP, Remote);
      return;
    }
  }
}

void Scheduler::blockOn(VProc &VP, bool (*Pred)(void *), void *Ctx,
                        bool RecordStats) {
  // Fast path: the partner is often mid-operation; a short poll+yield
  // spin catches it without a futex round trip.
  for (unsigned I = 0; I < BlockSpinRounds; ++I) {
    if (Pred(Ctx))
      return;
    VP.poll();
    std::this_thread::yield();
  }
  // Slow path: doorbell parks with the same growing bounded backstop as
  // the idle ladder. Every wake-up a channel block waits for has a ring
  // (hand-offs, Taken, steal requests, the GC broadcast) and the fence
  // pairing in doorbellPark/ringNode means none can be missed, so the
  // backstop is purely a safety net; it is kept short anyway because on
  // an oversubscribed host a shallow sleep resumes faster than a deep
  // futex wake. poll() between parks keeps this vproc answering steal
  // requests and joining pending collections while blocked.
  unsigned Round = 0;
  while (!Pred(Ctx)) {
    VP.poll();
    doorbellPark(VP, parkMicrosFor(Round++), RecordStats, Pred, Ctx);
  }
}

SchedStats Scheduler::aggregateStats() const {
  SchedStats Total;
  for (unsigned I = 0; I < RT.numVProcs(); ++I)
    Total.merge(RT.vproc(I).schedStats());
  return Total;
}
