//===- support/SpinLock.h - test-and-test-and-set spin lock --------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A TTAS spin lock. Its critical sections (a chunk-manager list, a
/// channel's queues, a gray-stack push) last well under a microsecond,
/// so a waiter watches the lock word from its own cache, with a pause
/// hint, until the holder releases it. Only a holder that lost its CPU
/// keeps the lock longer; the waiter's spin then runs out and it sleeps
/// (spinThenPark) instead of holding a CPU against the holder.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_SUPPORT_SPINLOCK_H
#define MANTI_SUPPORT_SPINLOCK_H

#include "support/Wait.h"

#include <atomic>

namespace manti {

/// Satisfies BasicLockable so it can be used with std::lock_guard.
class SpinLock {
public:
  SpinLock() = default;
  SpinLock(const SpinLock &) = delete;
  SpinLock &operator=(const SpinLock &) = delete;

  void lock() {
    if (!Flag.exchange(true, std::memory_order_acquire))
      return;
    // The threads: this waiter and the holder.
    spinThenPark(spinBudget(2), [this] { return try_lock(); }, sleepMicros);
  }

  /// Reads before writing, so waiters spin on a shared copy of the line.
  bool try_lock() {
    return !Flag.load(std::memory_order_relaxed) &&
           !Flag.exchange(true, std::memory_order_acquire);
  }

  void unlock() { Flag.store(false, std::memory_order_release); }

private:
  std::atomic<bool> Flag{false};
};

} // namespace manti

#endif // MANTI_SUPPORT_SPINLOCK_H
