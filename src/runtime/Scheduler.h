//===- runtime/Scheduler.h - topology-aware work-stealing scheduler ------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduling policy layer, extracted from VProc/Runtime so every
/// policy decision lives in one place:
///
///   * Victim selection walks a per-vproc *proximity order* precomputed
///     from the Topology: same-node vprocs form tier 0, then tiers of
///     increasing link-hop distance. Within a tier the probe order is
///     randomized per round (so same-node thieves don't convoy on one
///     victim), and the first tier containing a loaded victim wins.
///     Keeping steals on-node keeps the stolen environment -- and every
///     promotion the stolen task performs later -- off the interconnect,
///     which is the paper's Section 2.1 locality argument applied to the
///     computation side. Farther tiers are *throttled*: a thief probes
///     tier 0 every round, but tier k unlocks only after k * patience
///     consecutive failed rounds, so when new work appears on a node
///     that node's own vprocs claim it before the (far more numerous)
///     remote thieves converge on it.
///
///   * Steals are *batched*: the victim hands over the oldest
///     min(ceil(k/2), MaxTaskBatch) tasks and promotes all of their
///     environments in one answer, so one mailbox round trip amortizes
///     several promotions.
///
///   * Load balancing is stealing alone, as in the paper (Section 2.3):
///     idle vprocs pull work; busy ones never push it. A skewed producer
///     feeds its own node first and remote nodes once their thieves'
///     patience unlocks its tier; noteSpawn's ring escalation wakes them.
///
///   * The remote-steal patience itself is *adaptive*: each thief keeps
///     a per-vproc patience value, seeded at 64 rounds, and over windows
///     of steal rounds halves it when almost every round comes back
///     empty (reach farther, sooner) or doubles it when steals are
///     reliably succeeding (stay near home), clamped to [8, 512] rounds.
///
///   * Idle vprocs descend a spin -> yield -> park ladder instead of
///     hammering victim mailboxes. The park rung is a *doorbell wait* in
///     the ParkLot: the vproc parks on its node's doorbell and is rung
///     awake by whoever produces work for it -- a spawner (on the
///     spawner's or the task's hinted node), a thief posting a steal
///     request, a channel peer, or the global-GC trigger's broadcast.
///     The bounded sleep (<= 256 us) remains only as a backstop, so a
///     missed ring can never strand a vproc.
///
///   * Spawns may carry a Task::Affinity node hint. noteSpawn rings the
///     hinted node (work chases its data), and steal handshakes hand
///     hinted tasks to thieves on their hinted node first
///     (VProc::popForSteal) -- a soft preference; a starved thief is
///     never refused work.
///
///   * Every *other* blocking loop in the runtime (channel send/recv,
///     selectRecv) funnels through blockOn, which keeps polling for
///     steal requests and pending collections between doorbell parks.
///
/// Per-vproc SchedStats record node-local vs cross-node steals, batch
/// sizes, failed rounds, park time, and doorbell traffic (rings sent /
/// wasted, ring-to-wake latency); stolen-environment bytes are charged
/// to the TrafficMatrix under (victim node -> thief node).
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_RUNTIME_SCHEDULER_H
#define MANTI_RUNTIME_SCHEDULER_H

#include "runtime/ParkLot.h"
#include "runtime/SchedStats.h"
#include "runtime/VProc.h"
#include "support/Compiler.h"

#include <cstdint>
#include <vector>

namespace manti {

class Runtime;
class Topology;

class Scheduler {
public:
  /// Builds the per-vproc proximity orders for \p RT's topology and
  /// vproc-to-node assignment.
  explicit Scheduler(Runtime &RT);

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  /// \p VProcId's current remote-steal patience (seeded at 64 rounds,
  /// then adapted). Like the rest of the backoff state this is
  /// owner-thread data: call it from the thread driving that vproc
  /// (tests) or while the vprocs are quiescent.
  unsigned patienceOf(unsigned VProcId) const {
    return Backoff[VProcId].Patience;
  }

  /// \p Thief's victim probe order: tiers of vproc ids, tier 0 holding
  /// the same-node vprocs, later tiers sorted by increasing node
  /// distance. Never contains the thief itself.
  const std::vector<std::vector<unsigned>> &
  proximityOrder(unsigned VProcId) const {
    return Proximity[VProcId];
  }

  /// Picks the victim a steal round would probe first: the first loaded
  /// vproc in proximity order, subject to the thief's current
  /// remote-steal tier limit (nullptr when nothing reachable is loaded).
  /// Exposed for tests; stealAndRun walks the same tiers under the same
  /// limit (it merely keeps probing past a contended victim).
  VProc *pickVictim(VProc &Thief);

  /// The scheduling loop, shared by the worker threads (\p Done = "the
  /// run is over") and VProc::joinWait (\p Done = the join counter hit
  /// zero). Each iteration answers \p VP's steal mailbox and takes a
  /// safe point, runs the newest local task, and only when the queue is
  /// empty (and \p Done still false) steals or steps down the idle
  /// ladder. Answering the mailbox *before* running
  /// local work is what lets a spawner's queue be stolen while the
  /// spawner works through it. \p Done must be safe to evaluate
  /// concurrently with whoever makes it true (read atomics).
  void runUntil(VProc &VP, bool (*Done)(void *), void *Ctx);

  /// Thief side: posts a steal request along the proximity order and
  /// runs the first stolen task (queueing the rest of the batch
  /// locally). \returns true if a task was executed.
  bool stealAndRun(VProc &Thief);

  /// Victim side: answers \p Victim's pending steal request, popping and
  /// promoting a batch of min(ceil(k/2), MaxTaskBatch) tasks. Runs on
  /// the victim's own thread (a local heap may only be copied from by
  /// its owner): from its polls, and from its allocation slow path after
  /// a steal signal (the runtime's steal hook), so it may run in the
  /// middle of any task. It never allocates locally -- promotion copies
  /// into the global heap -- so the slow-path hook cannot re-enter it,
  /// and no owner-side code holds a ready-queue reference across an
  /// allocation.
  /// \returns true if a request was answered (successfully or not).
  bool serviceSteal(VProc &Victim);

  /// One step of the idle ladder for \p VP: spin, then yield, then park
  /// for a bounded, exponentially growing interval. Never parks when a
  /// steal request or a global collection is pending. Pass
  /// \p RecordStats = false from the between-runs drain loops: those
  /// keep idling after run() returns, and the stats must be quiescent
  /// for aggregateStats() readers by then. A non-null \p Pred is an
  /// extra wake condition re-checked after the park's epoch snapshot
  /// (runUntil passes its Done condition), so a targeted ring for it
  /// can never be lost.
  void idleBackoff(VProc &VP, bool RecordStats = true,
                   bool (*Pred)(void *) = nullptr, void *PredCtx = nullptr);

  /// Resets \p VP's ladder and remote-steal throttle; call whenever the
  /// vproc made progress.
  void noteProgress(VProc &VP) {
    Backoff[VP.id()].IdleRounds = 0;
    Backoff[VP.id()].FailedRounds = 0;
  }

  /// Wake-up policy for a freshly spawned task: rings \p T's hinted node
  /// when it has one, otherwise \p VP's own node; when the local ring
  /// finds no parked vproc and \p VP's queue has run deep, escalates to
  /// the nearest node with parked vprocs (remote rings only when the
  /// local vprocs are saturated). Called by VProc::spawn.
  void noteSpawn(VProc &VP, const Task &T);

  /// Blocks \p VP until \p Pred(Ctx) holds: a short poll+yield spin,
  /// then doorbell parks on \p VP's node with the bounded backstop.
  /// Keeps answering steal requests and joining pending collections
  /// between parks, so channel blocking can never deadlock a collection.
  /// \p Pred must be safe to evaluate concurrently with its producer
  /// (read atomics). Pass \p RecordStats = false from between-runs
  /// waits, whose idling must not leak into the per-run statistics.
  void blockOn(VProc &VP, bool (*Pred)(void *), void *Ctx,
               bool RecordStats = true);

  /// Rings \p Node's doorbell on \p Ringer's behalf (stats accounting),
  /// skipping the futex when nobody is parked there. \returns true when
  /// a waiter was present.
  bool ringNode(VProc &Ringer, NodeId Node);

  /// The doorbells (exposed so Runtime can broadcast run-epoch and
  /// termination turnovers).
  ParkLot &parkLot() { return Lot; }

  /// Sum of every vproc's SchedStats (call while vprocs are quiescent).
  SchedStats aggregateStats() const;

private:
  /// Posts Thief's request on Victim's mailbox and waits for the answer.
  /// \returns true if a batch arrived and its first task was run.
  bool attemptSteal(VProc &Thief, VProc &Victim);

  /// Highest proximity tier (exclusive) the thief may currently probe:
  /// tier k unlocks after k * patience consecutive failed rounds.
  std::size_t tierLimit(const VProc &Thief) const;

  /// Walks \p Thief's proximity tiers up to \p TierLimit, probing each
  /// tier in a randomized rotation, and calls \p Try on every loaded
  /// candidate until it returns true. \returns that candidate, or
  /// nullptr when the walk is exhausted.
  template <typename TryFnT>
  VProc *walkTiers(VProc &Thief, std::size_t TierLimit, TryFnT Try);

  /// One doorbell park for \p VP: prepare, re-check the standing wake
  /// conditions (mailbox, pending collection) plus \p Pred (when
  /// non-null) *after* the epoch snapshot -- the re-check-after-prepare
  /// is what makes a racing ring unable to be lost -- then wait for at
  /// most \p Micros. Records park statistics on \p VP when
  /// \p RecordStats.
  void doorbellPark(VProc &VP, unsigned Micros, bool RecordStats,
                    bool (*Pred)(void *), void *PredCtx);

  /// Exponential park bound for ladder position \p Step.
  static unsigned parkMicrosFor(unsigned Step);

  /// One adaptive-patience sample (owner thread): account the round,
  /// and at each window boundary halve or double the patience from the
  /// window's steal success rate, clamped to [8, 512].
  void notePatienceSample(VProc &VP, bool Success);

  /// Each vproc's owner thread updates its own entry every idle round;
  /// pad to a cache line so idle vprocs on different nodes don't
  /// ping-pong a shared line (the very traffic this scheduler avoids).
  struct alignas(CacheLineSize) BackoffState {
    unsigned IdleRounds = 0;   ///< ladder position (spin/yield/park)
    unsigned FailedRounds = 0; ///< consecutive empty rounds (tier unlock)
    unsigned Patience = 0;     ///< adaptive remote-steal patience
    unsigned WindowRounds = 0; ///< steal rounds in the current window
    unsigned WindowHits = 0;   ///< ... that brought work home
  };

  Runtime &RT;
  ParkLot &Lot;
  /// Proximity[v][tier] = vproc ids at that distance from vproc v.
  std::vector<std::vector<std::vector<unsigned>>> Proximity;
  /// NodeOrder[n] = the other nodes hosting vprocs, nearest first (ring
  /// escalation order).
  std::vector<std::vector<NodeId>> NodeOrder;
  /// Owner-thread-only ladder state, indexed by vproc id.
  std::vector<BackoffState> Backoff;
};

} // namespace manti

#endif // MANTI_RUNTIME_SCHEDULER_H
