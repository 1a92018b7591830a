//===- runtime/SchedStats.h - per-vproc scheduler statistics -------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters for the work-stealing scheduler: steal handshakes from both
/// ends, failed rounds, parks, doorbell traffic and adaptive patience.
/// Each vproc owns one SchedStats and mutates only its own (thief-side
/// counters on the thief's copy, victim-side counters on the victim's
/// copy), so no synchronization is needed; reports aggregate them after
/// the vprocs have quiesced. Kept dependency-free so the reporting layer
/// (gc/GCReport) can render scheduler statistics without pulling in the
/// runtime headers.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_RUNTIME_SCHEDSTATS_H
#define MANTI_RUNTIME_SCHEDSTATS_H

#include <cstdint>

namespace manti {

struct SchedStats {
  /// Tasks pushed on the local ready queue.
  uint64_t Spawns = 0;

  // Thief side: successful steal handshakes, classified by whether the
  // victim ran on the thief's NUMA node (Section 2.1: a cross-node steal
  // drags an environment -- and its subsequent promotions -- across the
  // interconnect).
  uint64_t TasksStolen = 0;      ///< tasks received via steals
  uint64_t StealBatches = 0;     ///< successful handshakes
  uint64_t NodeLocalBatches = 0; ///< ... with a same-node victim
  uint64_t CrossNodeBatches = 0; ///< ... with a remote victim

  // Victim side.
  uint64_t TasksServiced = 0;   ///< tasks handed to thieves
  uint64_t BatchesServiced = 0; ///< steal requests answered with work
  uint64_t StolenEnvBytes = 0;  ///< environment bytes promoted for thieves

  // Failures and idleness.
  uint64_t FailedStealAttempts = 0; ///< handshakes that yielded no task
  uint64_t FailedStealRounds = 0;   ///< full victim sweeps with no task
  uint64_t Parks = 0;               ///< park episodes (idle ladder + channels)
  uint64_t ParkNanos = 0;           ///< total time spent parked

  // Doorbell traffic (ParkLot). Ringer-side counters are charged to the
  // vproc that rang; parker-side wake-up counters to the vproc that
  // parked.
  uint64_t RingsSent = 0;        ///< doorbell rings attempted
  uint64_t RingsWasted = 0;      ///< ... that found no parked waiter
  uint64_t RingWakeups = 0;      ///< parks ended by a ring (not timeout)
  uint64_t ParkTimeouts = 0;     ///< parks that ran out the backstop
  uint64_t RingWakeupNanos = 0;  ///< total ring-to-wake latency
  uint64_t AffinityHandoffs = 0; ///< steal-batch tasks handed to their
                                 ///< hinted node's thief

  /// Always 0: the scheduler no longer sheds work; stealing is its only
  /// load balancer. Kept only because the repo benchmark reads it for
  /// runtime.sched.tasks_shed; it goes when that metric does.
  uint64_t TasksShed = 0;

  // Adaptive remote-steal patience (per-vproc multiplicative updates,
  // clamped to [8, 512] rounds).
  uint64_t PatienceRaises = 0; ///< windows that doubled the patience
  uint64_t PatienceDrops = 0;  ///< windows that halved it

  /// Fraction of successful steal handshakes whose victim was on the
  /// thief's own node (1.0 when no steals happened).
  double nodeLocalFraction() const {
    uint64_t Total = NodeLocalBatches + CrossNodeBatches;
    return Total ? static_cast<double>(NodeLocalBatches) /
                       static_cast<double>(Total)
                 : 1.0;
  }

  /// Mean tasks per successful steal handshake.
  double meanStealBatch() const {
    return StealBatches ? static_cast<double>(TasksStolen) /
                              static_cast<double>(StealBatches)
                        : 0.0;
  }

  /// Mean ring-to-wake latency in microseconds (0 when nothing was ever
  /// woken by a ring).
  double meanRingWakeupMicros() const {
    return RingWakeups ? static_cast<double>(RingWakeupNanos) /
                             (1e3 * static_cast<double>(RingWakeups))
                       : 0.0;
  }

  /// Merges another vproc's stats into this one (for reporting).
  void merge(const SchedStats &O) {
    Spawns += O.Spawns;
    TasksStolen += O.TasksStolen;
    StealBatches += O.StealBatches;
    NodeLocalBatches += O.NodeLocalBatches;
    CrossNodeBatches += O.CrossNodeBatches;
    TasksServiced += O.TasksServiced;
    BatchesServiced += O.BatchesServiced;
    StolenEnvBytes += O.StolenEnvBytes;
    FailedStealAttempts += O.FailedStealAttempts;
    FailedStealRounds += O.FailedStealRounds;
    Parks += O.Parks;
    ParkNanos += O.ParkNanos;
    RingsSent += O.RingsSent;
    RingsWasted += O.RingsWasted;
    RingWakeups += O.RingWakeups;
    ParkTimeouts += O.ParkTimeouts;
    RingWakeupNanos += O.RingWakeupNanos;
    AffinityHandoffs += O.AffinityHandoffs;
    TasksShed += O.TasksShed;
    PatienceRaises += O.PatienceRaises;
    PatienceDrops += O.PatienceDrops;
  }
};

} // namespace manti

#endif // MANTI_RUNTIME_SCHEDSTATS_H
