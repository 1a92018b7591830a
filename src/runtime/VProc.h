//===- runtime/VProc.h - virtual processors and work stealing -------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A vproc is "an abstraction of a computational resource ... hosted by
/// its own pthread, which is pinned to a physical node" (Section 2.2).
/// Each vproc owns a ready queue of tasks; new work is pushed and popped
/// at the bottom (LIFO) by the owner, and stolen from the top (FIFO).
///
/// Stealing is a two-party handshake through a mailbox rather than a
/// concurrent deque: the thief posts a StealRequest on the victim's
/// mailbox and the victim answers at its next poll point or allocation.
/// This mirrors Manticore's message-based steals and, crucially, lets
/// the *victim* promote the stolen tasks' environments out of its own
/// local heap -- only the owner of a local heap may copy from it. With
/// lazy promotion (the default, after Rainey 2010) that cost is paid
/// only when a task is actually stolen; the eager alternative promotes
/// at spawn time and is kept as an ablation knob.
///
/// A victim answers its mailbox (Scheduler::serviceSteal) at these
/// points:
///   * its next allocation while it runs a task: after posting, the
///     thief sets the victim's steal flag and zeroes its allocation
///     limit (VProcHeap::signalSteal, the limit-pointer signal a
///     collection request uses), so the victim's next allocation enters
///     the slow path and answers through the runtime's steal hook;
///   * every iteration of the scheduling loop (Scheduler::runUntil),
///     before it runs the next local task -- the loop both the worker
///     threads and joinWait run, so a spawner working through its own
///     queue keeps handing the oldest tasks to thieves;
///   * every round of a blocked wait (Scheduler::blockOn: channel
///     send/recv, run()'s end-of-run drain) and of the workers'
///     between-runs drain loop;
///   * a thief's own wait for its victim's answer (attemptSteal), so
///     mutual steals cannot deadlock;
///   * between the slices of a concurrent-marking task.
/// Only a task that neither allocates nor polls keeps a thief waiting.
/// An answer mid-task promotes environments the running code may still
/// hold; its handles then point at promotion husks, which read right
/// (objectHeader follows the forwarding word) until the next local
/// collection repairs them.
///
/// Victim selection, steal batching, and the idle wait live
/// in the Scheduler subsystem (runtime/Scheduler.h); the VProc keeps the
/// owner-thread queue operations and the mailbox the handshake runs on.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_RUNTIME_VPROC_H
#define MANTI_RUNTIME_VPROC_H

#include "gc/Heap.h"
#include "runtime/SchedStats.h"
#include "runtime/Task.h"
#include "support/XorShift.h"

#include <atomic>
#include <deque>
#include <vector>

namespace manti {

class Runtime;
class Scheduler;

/// Hard cap on the tasks one steal answer moves. Headroom, not a tuned
/// value: with one capped answer per handshake, no handshake on any
/// repo-benchmark workload moved more than 6 tasks (README, "Recorded
/// ablation verdicts"), so the cap only bounds a pathological queue.
inline constexpr unsigned MaxTaskBatch = 16;

/// One steal-handshake mailbox message. Each vproc owns exactly one
/// request object for the steals *it* initiates, so a request carries a
/// whole batch: the victim hands over the oldest min(ceil(k/2),
/// MaxTaskBatch) tasks and promotes their environments in one answer,
/// amortizing the handshake and the promotion pauses.
///
/// Memory ordering of the handshake (the full release/acquire story; the
/// regression test SchedulerTest.HandshakeHammer exercises it under
/// TSan):
///
///  1. The thief writes ThiefNode and State=Posted (plain/relaxed), then
///     publishes the request with a CAS on the victim's Mailbox
///     (acq_rel). The victim's Mailbox load(acquire) therefore sees both
///     fields.
///  2. The victim writes Stolen[0..Count) and Count as plain stores,
///     clears the mailbox, and only then stores State=Filled (release).
///     The thief spins on State with load(acquire); observing Filled
///     forms a release/acquire edge, so every Stolen/Count write
///     happens-before the thief's reads. No additional fence is needed:
///     the State pair is the fence.
///  3. The thief consumes the batch and stores State=Idle (release) so
///     its plain clears of Stolen[] happen-before the *next* victim's
///     reads, which are ordered after the next Mailbox CAS (step 1).
struct StealRequest {
  enum StateKind : int { Idle, Posted, Filled, Failed };
  std::atomic<int> State{Idle};
  NodeId ThiefNode = 0;      ///< written by the thief before posting
  unsigned Count = 0;        ///< valid when State == Filled
  Task Stolen[MaxTaskBatch]; ///< valid when State == Filled; Envs promoted
};

class VProc {
public:
  VProc(Runtime &RT, VProcHeap &Heap);

  VProc(const VProc &) = delete;
  VProc &operator=(const VProc &) = delete;

  Runtime &runtime() { return RT; }
  VProcHeap &heap() { return Heap; }
  unsigned id() const { return Heap.id(); }
  NodeId node() const { return Heap.node(); }

  //===--------------------------------------------------------------------===//
  // Owner-thread scheduler operations
  //===--------------------------------------------------------------------===//

  /// Pushes a task on the bottom of the ready queue. Under eager
  /// promotion the environment is promoted here.
  void spawn(Task T);

  /// Pops and runs the newest local task. \returns false if empty.
  bool runOneLocal();

  /// Answers a pending steal request, if any (delegates to the
  /// Scheduler). \returns true if one was serviced.
  bool serviceSteal();

  /// Safe point: answers steal requests and joins any pending global
  /// collection. Call this from every loop that can block.
  void poll();

  /// Attempts to steal (and run) work from another vproc, walking the
  /// Scheduler's proximity order. \returns true if a task was executed.
  bool stealAndRun();

  /// Runs local and stolen work until \p Join completes
  /// (Scheduler::runUntil): answers steal requests before every local
  /// task, and waits (spin, then park) when no work is found.
  /// Takes safe points, so callers keep their live values rooted.
  void joinWait(JoinCounter &Join);

  /// Runs \p T. Its environment is not rooted here: from the body's
  /// first instruction it lives only where the body roots it (see
  /// Task::Env).
  void runTask(Task T);

  /// Owner-thread pop of up to \p Max tasks from the steal (oldest) end
  /// for a thief on \p ThiefNode, written to \p Out. Tasks hinted at the
  /// thief's node go first, then unhinted tasks, then -- so work
  /// conservation always wins over affinity -- tasks hinted elsewhere;
  /// oldest-first within each class. Scans a bounded window of the
  /// oldest tasks so a deep queue never makes a handshake O(queue).
  /// \p AffinityMatches, when non-null, receives how many handed-over
  /// tasks were hinted at the thief's node. \returns the task count
  /// (min(Max, queue depth)).
  unsigned popForSteal(NodeId ThiefNode, unsigned Max, Task *Out,
                       unsigned *AffinityMatches = nullptr);

  /// Number of tasks currently in the local queue. Safe to call from any
  /// thread: reads a depth counter the owner maintains at push/pop
  /// instead of touching the deque (which only the owner may do). The
  /// value is a snapshot -- victim selection treats it as a load
  /// heuristic, nothing more.
  ///
  /// Lifetime protocol for cross-thread readers (victim selection,
  /// tests): a VProc may be read for exactly as long as its
  /// Runtime is alive. ~Runtime joins every worker thread *before* any
  /// VProc is destroyed, so scheduler-internal readers (including the
  /// drain loops between runs) can never touch a dead vproc; external
  /// readers must not outlive the Runtime object, same as any other
  /// accessor on it. Scheduler.QueueDepthTeardownHammer runs this
  /// protocol under TSan across run()/drain boundaries.
  std::size_t queueDepth() const {
    return Depth.load(std::memory_order_relaxed);
  }

  //===--------------------------------------------------------------------===//
  // Scheduler statistics
  //===--------------------------------------------------------------------===//

  const SchedStats &schedStats() const { return SStats; }
  uint64_t spawns() const { return SStats.Spawns; }
  /// Tasks this vproc received through steals.
  uint64_t stealsOut() const { return SStats.TasksStolen; }
  /// Tasks other vprocs took from this one.
  uint64_t stealsServiced() const { return SStats.TasksServiced; }
  uint64_t failedSteals() const { return SStats.FailedStealAttempts; }

  //===--------------------------------------------------------------------===//
  // Root enumeration (GC callbacks; run on this vproc's thread)
  //===--------------------------------------------------------------------===//

  template <typename FnT> void forEachSchedulerRoot(FnT Fn) {
    for (Task &T : ReadyQ)
      Fn(reinterpret_cast<Word *>(&T.Env));
    if (MyRequest.State.load(std::memory_order_acquire) ==
        StealRequest::Filled) {
      // The acquire above pairs with the victim's release store of
      // Filled, so Count and the batch slots are visible.
      for (unsigned I = 0; I < MyRequest.Count; ++I)
        Fn(reinterpret_cast<Word *>(&MyRequest.Stolen[I].Env));
    }
    for (ResultCell *Cell : Cells) {
      if (Cell->filled())
        Fn(Cell->slot());
    }
  }

private:
  friend class ResultCell;
  friend class Scheduler;

  /// Owner-thread push of an already-promoted stolen task (no spawn
  /// accounting, no eager promotion -- the victim promoted it already).
  void enqueueStolen(Task T);

  Runtime &RT;
  VProcHeap &Heap;

  std::deque<Task> ReadyQ;             ///< owner-only
  std::atomic<std::size_t> Depth{0};   ///< ReadyQ.size(), cross-thread view
  std::atomic<StealRequest *> Mailbox{nullptr}; ///< posted by thieves
  StealRequest MyRequest;              ///< used when this vproc steals
  std::vector<ResultCell *> Cells;     ///< live result cells we own
  XorShift64 Rng;

  SchedStats SStats;
};

} // namespace manti

#endif // MANTI_RUNTIME_VPROC_H
