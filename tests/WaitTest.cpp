//===- tests/WaitTest.cpp - the one spin-then-park wait -------------------===//
//
// Part of the manticore-gc project.
//
// spinThenPark (support/Wait.h) is the runtime's only way to wait: a
// check set during the spin ends the wait without a park, a check set
// later is seen within the park backstop, the spin budget is zero when
// the waiting threads outnumber the CPUs, and a thief that parks while
// its victim runs a long non-allocating loop is rung awake by the
// victim's answer. CI runs this binary under ThreadSanitizer.
//
//===----------------------------------------------------------------------===//

#include "GCTestUtils.h"
#include "runtime/ParkLot.h"
#include "runtime/Runtime.h"
#include "support/Wait.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace manti;
using namespace manti::test;

namespace {

using Clock = std::chrono::steady_clock;

} // namespace

TEST(Wait, CheckSetDuringTheSpinEndsTheWaitWithoutAPark) {
  std::atomic<bool> Flag{false};
  unsigned Parks = 0;
  std::thread Setter([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    Flag.store(true, std::memory_order_release);
  });
  // A budget far longer than any scheduling stall: the setter always
  // lands inside the spin.
  spinThenPark(
      std::chrono::seconds(30),
      [&] { return Flag.load(std::memory_order_acquire); },
      [&](unsigned) { ++Parks; });
  Setter.join();
  EXPECT_TRUE(Flag.load());
  EXPECT_EQ(Parks, 0u) << "a check that turns true in the spin never parks";
}

TEST(Wait, CheckSetAfterTheBudgetIsSeenWithinTheBackstop) {
  std::atomic<bool> Flag{false};
  std::atomic<int64_t> SetAt{0};
  std::vector<unsigned> Bounds;
  Doorbell Bell; // nobody rings it: every park runs out its bound
  std::thread Setter([&] {
    // Long enough for an unbounded doubling to reach 8 * 2^12 us.
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    SetAt.store(Clock::now().time_since_epoch().count());
    Flag.store(true, std::memory_order_release);
  });
  auto Check = [&] { return Flag.load(std::memory_order_acquire); };
  spinThenPark(std::chrono::nanoseconds(0), Check, [&](unsigned Micros) {
    Bounds.push_back(Micros);
    uint32_t Seen = Bell.prepare();
    if (Check())
      Bell.cancel();
    else
      EXPECT_FALSE(Bell.park(Seen, std::chrono::microseconds(Micros)));
  });
  int64_t Lag = Clock::now().time_since_epoch().count() - SetAt.load();
  Setter.join();

  ASSERT_GE(Bounds.size(), 2u);
  for (std::size_t I = 0; I < Bounds.size(); ++I)
    EXPECT_EQ(Bounds[I], parkMicros(static_cast<unsigned>(I)));
  EXPECT_EQ(Bounds.front(), MinParkMicros);
  EXPECT_EQ(Bounds.back(), MaxParkMicros);
  // The last park ends at most MaxParkMicros (plus timer slack and a
  // scheduling delay) after the flag was set.
  EXPECT_LT(std::chrono::nanoseconds(Lag), std::chrono::milliseconds(25));
}

TEST(Wait, BudgetIsZeroWhenThreadsOutnumberCpus) {
  EXPECT_EQ(spinBudget(1, 1), WaitSpinBudget);
  EXPECT_EQ(spinBudget(4, 4), WaitSpinBudget);
  EXPECT_EQ(spinBudget(2, 48), WaitSpinBudget);
  EXPECT_EQ(spinBudget(5, 4), std::chrono::nanoseconds(0));
  EXPECT_EQ(spinBudget(16, 4), std::chrono::nanoseconds(0));
  EXPECT_EQ(spinBudget(2, 1), std::chrono::nanoseconds(0));
  EXPECT_GE(availableCpus(), 1u);
}

TEST(Wait, ParkBoundDoublesUpToTheBackstop) {
  EXPECT_EQ(parkMicros(0), 8u);
  EXPECT_EQ(parkMicros(1), 16u);
  EXPECT_EQ(parkMicros(5), 256u);
  EXPECT_EQ(parkMicros(6), 256u);
  EXPECT_EQ(parkMicros(1000), 256u);
}

namespace {

/// Steal rounds: an answer can land between the thief's registration
/// and its re-check, and then the thief sees it without a ring; over
/// several rounds at least one answer finds the thief asleep.
constexpr unsigned StealRounds = 4;

/// What the steal test observed, per round: when the victim answered
/// and when the stolen task started, and on which vproc.
struct StealProbe {
  int64_t AnsweredAt[StealRounds] = {};
  std::atomic<int64_t> StartedAt[StealRounds] = {};
  std::atomic<unsigned> Runs{0};
  std::atomic<unsigned> RanOnThief{0};
  bool ThiefParked = true;
};

} // namespace

TEST(Wait, ParkedThiefIsRungWhenItsVictimAnswers) {
  // Two vprocs on two nodes: vproc 0 (the victim) runs the body, vproc 1
  // is the only thief and the only vproc on node 1, so the only ring
  // node 1 hears during the body is the victim's answer.
  RuntimeConfig Cfg;
  Cfg.GC = smallConfig();
  Cfg.NumVProcs = 2;
  Cfg.PinThreads = false;
  Runtime RT(Cfg, Topology::uniform(2, 1));
  StealProbe P;
  RT.run(
      [](Runtime &RT, VProc &VP, void *Ctx) {
        auto &P = *static_cast<StealProbe *>(Ctx);
        NodeId ThiefNode = RT.vproc(1).node();
        for (unsigned R = 0; R < StealRounds; ++R) {
          VP.spawn({[](Runtime &, VProc &Thief, Task T) {
                      auto &P = *static_cast<StealProbe *>(T.Ctx);
                      P.StartedAt[T.A].store(
                          Clock::now().time_since_epoch().count());
                      if (Thief.id() == 1)
                        P.RanOnThief.fetch_add(1);
                      P.Runs.fetch_add(1);
                    },
                    &P, Value::nil(), static_cast<int64_t>(R), 0});
          // A long loop that neither allocates nor polls, until the
          // thief has posted its request (the steal signal) and parked.
          const auto Deadline = Clock::now() + std::chrono::seconds(10);
          while (!(VP.heap().stealSignalled() &&
                   RT.parkLot().parkedOn(ThiefNode) > 0)) {
            if (Clock::now() > Deadline) {
              P.ThiefParked = false;
              return;
            }
            cpuRelax();
          }
          P.AnsweredAt[R] = Clock::now().time_since_epoch().count();
          VP.poll(); // answers the request and rings the thief's node
          // Allocate once: the slow path takes the spent steal signal,
          // so the next round's wait sees only a fresh request.
          (void)makeIntList(VP.heap(), 1);
          while (P.Runs.load() <= R)
            cpuRelax();
        }
      },
      &P);

  ASSERT_TRUE(P.ThiefParked) << "the thief must park while it waits";
  EXPECT_EQ(P.RanOnThief.load(), StealRounds)
      << "every task must leave through the steal";
  EXPECT_GE(RT.vproc(1).schedStats().RingWakeups, 1u)
      << "the victim's answer must ring the parked thief awake";
  for (unsigned R = 0; R < StealRounds; ++R)
    EXPECT_LT(
        std::chrono::nanoseconds(P.StartedAt[R].load() - P.AnsweredAt[R]),
        std::chrono::milliseconds(25));
}
