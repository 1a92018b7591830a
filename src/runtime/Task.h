//===- runtime/Task.h - units of parallel work ----------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The implicitly-threaded layer pushes units of parallel work onto a
/// vproc-local queue (paper Section 2.3). A Task pairs a function with
/// three kinds of state:
///
///   * Env  -- a GC-managed value. This is the "data captured in a
///             closure": when another vproc steals the task, Env must be
///             promoted to the global heap first (the paper's one of two
///             points where data leaves a local heap).
///   * Ctx  -- a plain C++ pointer to spawner-owned control state (join
///             counters, loop bodies); never garbage collected and never
///             containing heap values.
///   * A, B -- two immediate integers (typically a [lo, hi) range), so
///             data-parallel loops need no heap allocation per spawn.
///
/// JoinCounter and ResultCell implement fork-join synchronization and
/// cross-vproc result passing; a result written by a different vproc
/// than the one that will read it is promoted by the producer, keeping
/// the heap invariants intact.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_RUNTIME_TASK_H
#define MANTI_RUNTIME_TASK_H

#include "gc/ObjectModel.h"
#include "numa/Topology.h"

#include <atomic>
#include <cstdint>

namespace manti {

class Runtime;
class VProc;
struct Task;

/// A task body. \p T is a by-value copy that no collection updates, so
/// the body reads T.Env before its first allocation or safe point, or
/// roots it first (see Task::Env).
using TaskFn = void (*)(Runtime &RT, VProc &VP, Task T);

struct Task {
  /// Affinity value meaning "run anywhere" (the default).
  static constexpr NodeId NoAffinity = ~0u;

  TaskFn Fn = nullptr;
  void *Ctx = nullptr;
  /// Rooted while the task waits in a queue or a steal batch, and
  /// unrooted once its body starts: from then on it lives only where
  /// the body roots it, so it dies at its last use instead of when the
  /// task returns. A body that reads it after an allocation or a safe
  /// point roots it first (`Ref<> E = Scope.root(T.Env)`).
  Value Env;
  int64_t A = 0;
  int64_t B = 0;
  /// Optional hint: the NUMA node holding the data this task will
  /// traverse. Victim selection hands hinted tasks to thieves on that
  /// node first (a soft preference -- work conservation always wins),
  /// spawn rings the hinted node's doorbell so its parked vprocs come
  /// and claim the task, and the hint rides along through every steal
  /// (VProc::popForSteal). NoAffinity leaves all of these decisions to
  /// the default locality policy.
  NodeId Affinity = NoAffinity;
};

/// Counts outstanding subtasks of a fork-join region. The spawner waits
/// in VProc::joinWait, running other work meanwhile ("help-first").
class JoinCounter {
public:
  explicit JoinCounter(int64_t Initial = 0) : Pending(Initial) {}

  void add(int64_t N = 1) { Pending.fetch_add(N, std::memory_order_relaxed); }
  /// Decrements the count. The decrement that completes the region
  /// (count reaching <= 0) also rings the registered waiter's node
  /// doorbell, so a joiner sleeping in the idle wait resumes on the
  /// ring instead of its park backstop. Out of line: the ring needs the
  /// scheduler (defined in VProc.cpp).
  void sub(int64_t N = 1);
  bool done() const { return Pending.load(std::memory_order_acquire) <= 0; }

  /// Registers the vproc that will wait on this counter as the target
  /// of completion rings; joinWait calls it on entry. Call only from
  /// the joiner's own thread.
  void setWaiter(VProc *W) { Waiter.store(W, std::memory_order_release); }

private:
  std::atomic<int64_t> Pending;
  /// The joiner registered by joinWait (null when nobody waits): the
  /// ring target of the completing sub().
  std::atomic<VProc *> Waiter{nullptr};
};

/// A single-assignment result slot owned by the spawning vproc.
///
/// The producing task calls fill() exactly once; if the producer is a
/// different vproc the value is promoted first, so the owner only ever
/// sees values that are legal in its root set (its own local heap or the
/// global heap). The owner's root enumeration visits filled cells, which
/// is what keeps results alive across collections while the owner is
/// still joining. Construction and destruction must happen on the
/// owner's thread.
class ResultCell {
public:
  explicit ResultCell(VProc &Owner);
  ~ResultCell();

  ResultCell(const ResultCell &) = delete;
  ResultCell &operator=(const ResultCell &) = delete;

  /// Called by the producing task (any vproc, exactly once).
  void fill(VProc &Producer, Value V);

  /// Moves the value out to the owner after the corresponding join
  /// completes and clears the cell, so the value stays rooted only where
  /// the caller roots it (at once: the next allocation may collect).
  /// A second take() returns nil.
  Value take() {
    Value V = Value::fromBits(Bits);
    Bits = Value::nil().bits();
    return V;
  }

  /// Root-enumeration hooks (owner thread only).
  bool filled() const { return Filled.load(std::memory_order_acquire); }
  Word *slot() { return &Bits; }

private:
  VProc &Owner;
  std::atomic<bool> Filled{false};
  Word Bits = Value::nil().bits();
};

} // namespace manti

#endif // MANTI_RUNTIME_TASK_H
