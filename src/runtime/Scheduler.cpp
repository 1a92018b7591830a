//===- runtime/Scheduler.cpp -----------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "runtime/Scheduler.h"

#include "numa/TrafficMatrix.h"
#include "runtime/Runtime.h"
#include "support/Assert.h"
#include "support/Compiler.h"
#include "support/Logging.h"
#include "support/Wait.h"

#include <algorithm>
#include <chrono>

using namespace manti;

namespace {

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
    : RT(RT), Lot(RT.parkLot()), SpinBudget(spinBudget(RT.numVProcs())) {
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
  // The idle wait's check: poll, then run a local or a stolen task.
  auto RanTask = [&] {
    if (Done(Ctx))
      return true;
    VP.poll();
    if (VP.runOneLocal() || (!Done(Ctx) && stealAndRun(VP))) {
      noteProgress(VP);
      return true;
    }
    return false;
  };
  while (!Done(Ctx))
    spinThenPark(SpinBudget, RanTask, [&](unsigned Micros) {
      doorbellPark(VP, Micros, /*RecordStats=*/true, Done, Ctx);
    });
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

  // Wait for the victim's answer, answering our own mailbox and joining
  // pending collections so nothing deadlocks; the victim rings our node
  // once the answer is published.
  int S = StealRequest::Posted;
  blockOn(Thief, [&] {
    return (S = Req.State.load(std::memory_order_acquire)) !=
           StealRequest::Posted;
  });
  if (S == StealRequest::Failed) {
    Req.State.store(StealRequest::Idle, std::memory_order_release);
    ++Thief.SStats.FailedStealAttempts;
    return false;
  }
  // The acquire above pairs with the victim's release store of Filled:
  // the batch slots and Count are visible (step 2).
  unsigned Count = Req.Count;
  MANTI_CHECK(Count >= 1 && Count <= MaxTaskBatch,
              "steal batch out of range");
  // Run the oldest task directly -- no safe point between here and the
  // body's first read or root of its environment -- and queue the rest
  // (oldest first, so the local LIFO end still prefers the newest work).
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
  // A multi-task batch leaves fresh work on this node's queue: ring it
  // so parked peers help with the batch.
  if (Count > 1)
    ringNode(Thief, Thief.node());
  MANTI_DEBUG("sched", "vp%u stole %u task(s) from vp%u (%s-node)",
              Thief.id(), Count, Victim.id(),
              Victim.node() == Thief.node() ? "same" : "cross");
  Thief.runTask(First);
  return true;
}

bool Scheduler::serviceSteal(VProc &Victim) {
  StealRequest *Req = Victim.Mailbox.load(std::memory_order_acquire);
  if (!Req)
    return false;
  // The mailbox is cleared before the answer is published, so the thief
  // (or another) may post again as soon as it sees Filled or Failed.
  Victim.Mailbox.store(nullptr, std::memory_order_release);
  // Read before the answer is published: from then on the thief owns
  // the request again. The answer rings the thief's node outside the
  // ring counters, which measure the spawn and channel ring policy.
  NodeId ThiefNode = Req->ThiefNode;
  std::size_t K = Victim.ReadyQ.size();
  if (K == 0) {
    Req->State.store(StealRequest::Failed, std::memory_order_release);
    Lot.ringParked(ThiefNode); // a parked thief waits for the answer
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
  Take = Victim.popForSteal(ThiefNode, Take, Req->Stolen,
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
    RT.world().traffic().record(Victim.node(), ThiefNode, EnvBytes);

  // Handshake step 2: plain writes above, then the release store.
  Req->State.store(StealRequest::Filled, std::memory_order_release);
  Lot.ringParked(ThiefNode);
  return true;
}

void Scheduler::doorbellPark(VProc &VP, unsigned Micros, bool RecordStats,
                             bool (*Pred)(void *), void *PredCtx) {
  // Snapshot the epoch, re-check every standing wake condition, then
  // wait: a ring after the snapshot (a broadcast rings every node) ends
  // the wait at once. The fence pairs with ParkLot::ringParked's: either
  // that ringer sees prepare's registration and rings, or the re-checks
  // below see the condition it published.
  ParkLot::Token T = Lot.prepare(VP.node());
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if ((Pred && Pred(PredCtx)) ||
      VP.Mailbox.load(std::memory_order_acquire) != nullptr ||
      RT.world().rendezvousRequested()) {
    Lot.cancel(VP.node(), T);
    return; // the caller's next check answers whatever is pending
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

bool Scheduler::ringNode(VProc &Ringer, NodeId Node) {
  ++Ringer.SStats.RingsSent;
  if (Lot.ringParked(Node) != 0)
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

SchedStats Scheduler::aggregateStats() const {
  SchedStats Total;
  for (unsigned I = 0; I < RT.numVProcs(); ++I)
    Total.merge(RT.vproc(I).schedStats());
  return Total;
}
