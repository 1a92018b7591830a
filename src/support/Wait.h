//===- support/Wait.h - the one spin-then-park wait -----------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every loop in the runtime that waits for another thread waits through
/// spinThenPark. The caller supplies its check (which may do work: answer
/// steal requests, join a pending collection) and its park: a doorbell
/// park where someone rings when the check may have turned true, a sleep
/// where nobody does. The helper spins on the check, with cpuRelax()
/// between evaluations, for a budget read from the steady clock, then
/// parks with a bound of 8 us that doubles each round up to 256 us (a
/// ring ends a doorbell park at once; the bound is a backstop). It never
/// yields to the OS scheduler: a yield returns at once on an idle CPU,
/// so a yield loop burns system time without waiting for anything.
///
/// The spin budget is not a setting: a spin is worth its CPU only while
/// the thread waited for can run at the same time, so a wait among more
/// threads than the process has CPUs parks at once (spinBudget).
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_SUPPORT_WAIT_H
#define MANTI_SUPPORT_WAIT_H

#include "support/Compiler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

namespace manti {

/// The spin's length: a park-and-wake round trip plus the kernel's timer
/// slack. A kv-open sweep on a 4-vCPU Xeon put a channel wait's spin on
/// a plateau from 30 to 120 us.
inline constexpr std::chrono::nanoseconds WaitSpinBudget{60'000};
/// The first park's bound; each park round doubles it.
inline constexpr unsigned MinParkMicros = 8;
/// The park bound's ceiling: how late a wait whose wake nobody rings
/// can see its condition.
inline constexpr unsigned MaxParkMicros = 256;

/// The spin budget of a wait among \p Threads threads on \p Cpus CPUs:
/// zero when they do not all fit.
constexpr std::chrono::nanoseconds spinBudget(unsigned Threads,
                                              unsigned Cpus) {
  return Threads <= Cpus ? WaitSpinBudget : std::chrono::nanoseconds{0};
}

/// CPUs this process may run on (its affinity mask; read once).
unsigned availableCpus();

/// spinBudget for \p Threads threads on this process's CPUs.
inline std::chrono::nanoseconds spinBudget(unsigned Threads) {
  return spinBudget(Threads, availableCpus());
}

/// Park bound of park round \p Round (0-based): 8, 16, ... 256 us.
constexpr unsigned parkMicros(unsigned Round) {
  return std::min(MinParkMicros << std::min(Round, 5u), MaxParkMicros);
}

/// The park of a wait with no doorbell: sleeps for \p Micros.
void sleepMicros(unsigned Micros);

/// Waits until \p Done() returns true: spins for \p Budget, then calls
/// \p Park(Micros) with the growing bound until it does. \p Done is
/// evaluated first (a wait that need not wait reads no clock) and after
/// every park, so \p Park may return early for any reason.
template <typename DoneFnT, typename ParkFnT>
void spinThenPark(std::chrono::nanoseconds Budget, DoneFnT &&Done,
                  ParkFnT &&Park) {
  if (Done())
    return;
  if (Budget.count() > 0) {
    auto Deadline = std::chrono::steady_clock::now() + Budget;
    do {
      cpuRelax();
      if (Done())
        return;
    } while (std::chrono::steady_clock::now() < Deadline);
  }
  for (unsigned Round = 0;; ++Round) {
    Park(parkMicros(Round));
    if (Done())
      return;
  }
}

/// A futex-backed doorbell: an epoch word every ring bumps and a count
/// of registered waiters. A waiter prepare()s (registers, then snapshots
/// the epoch), re-checks its condition, and then cancel()s or park()s.
/// A ringer publishes its condition, then ring()s. Both pairs are
/// seq_cst, so either the ringer sees the waiter and wakes the futex or
/// the waiter's re-check sees the condition; the kernel compares the
/// word again under its own lock, so a ring between the re-check and the
/// sleep ends the sleep at once. No interleaving loses a wake.
class Doorbell {
public:
  /// Registers a waiter and \returns the epoch snapshot. Follow with
  /// exactly one cancel() or park().
  uint32_t prepare() {
    Waiters.fetch_add(1, std::memory_order_seq_cst);
    return Epoch.load(std::memory_order_seq_cst);
  }

  /// Deregisters without sleeping (the condition already holds).
  void cancel() { Waiters.fetch_sub(1, std::memory_order_seq_cst); }

  /// Sleeps until the epoch moves past \p Seen or \p MaxWait elapses,
  /// then deregisters. \returns true when a ring ended the park (a
  /// timeout is a timeout even when a wake-one ring for another waiter
  /// moved the epoch meanwhile).
  bool park(uint32_t Seen, std::chrono::microseconds MaxWait);

  /// Bumps the epoch and wakes up to \p Wake registered waiters.
  /// \returns the number registered at ring time (0: the ring woke
  /// nobody).
  unsigned ring(int Wake = 1);

  /// Registered waiters (a racy snapshot).
  unsigned waiters() const { return Waiters.load(std::memory_order_seq_cst); }
  uint32_t epoch() const { return Epoch.load(std::memory_order_seq_cst); }

private:
  std::atomic<uint32_t> Epoch{0};
  std::atomic<uint32_t> Waiters{0};
};

} // namespace manti

#endif // MANTI_SUPPORT_WAIT_H
