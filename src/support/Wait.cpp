//===- support/Wait.cpp ---------------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "support/Wait.h"

#include <linux/futex.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#include <thread>

using namespace manti;

unsigned manti::availableCpus() {
  static const unsigned Cpus = [] {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
      return static_cast<unsigned>(CPU_COUNT(&Set));
    return std::max(1u, std::thread::hardware_concurrency());
  }();
  return Cpus;
}

void manti::sleepMicros(unsigned Micros) {
  std::this_thread::sleep_for(std::chrono::microseconds(Micros));
}

bool Doorbell::park(uint32_t Seen, std::chrono::microseconds MaxWait) {
  static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t),
                "futex word must be exactly 32 bits");
  bool TimedOut = false;
  if (epoch() == Seen) {
    struct timespec Ts;
    Ts.tv_sec = static_cast<time_t>(MaxWait.count() / 1000000);
    Ts.tv_nsec = static_cast<long>((MaxWait.count() % 1000000) * 1000);
    // The kernel compares the word under its own lock: a ring since the
    // epoch() read above returns at once (EAGAIN). ETIMEDOUT and the
    // rare EINTR both count as a timeout.
    long Rc = syscall(SYS_futex, reinterpret_cast<uint32_t *>(&Epoch),
                      FUTEX_WAIT_PRIVATE, Seen, &Ts, nullptr, 0);
    TimedOut = Rc != 0 && errno != EAGAIN;
  }
  bool Rung = !TimedOut && epoch() != Seen;
  Waiters.fetch_sub(1, std::memory_order_seq_cst);
  return Rung;
}

unsigned Doorbell::ring(int Wake) {
  // Always bump, even with no visible waiter: a waiter between its
  // registration and its epoch snapshot is invisible to the count load
  // below, but its snapshot then sees this bump.
  Epoch.fetch_add(1, std::memory_order_seq_cst);
  unsigned W = waiters();
  if (W > 0)
    syscall(SYS_futex, reinterpret_cast<uint32_t *>(&Epoch),
            FUTEX_WAKE_PRIVATE, Wake, nullptr, nullptr, 0);
  return W;
}
