//===- tests/StealSignalTest.cpp - steals answered at allocation ----------===//
//
// Part of the manticore-gc project.
//
// A thief's steal request zeroes its victim's allocation limit (the
// limit-pointer signal of Section 3.4 step 2), so a victim running a
// task answers at its next allocation, not only at its next poll. These
// tests run a victim that allocates without polling: its queued task
// must leave mid-loop, the environment that left must still read right
// through the victim's own (now forwarded) handle, and a signal whose
// request was already answered at a poll must cost nothing but one
// slow-path entry. CI runs this binary under ThreadSanitizer and under
// MANTI_STRESS_GC=1.
//
//===----------------------------------------------------------------------===//

#include "GCTestUtils.h"
#include "runtime/Rope.h"
#include "runtime/Runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace manti;
using namespace manti::test;

namespace {

/// Two vprocs on one node: vproc 0 runs the test body (the victim),
/// vproc 1 is the only thief, so the spawned task can only leave vproc 0
/// through its steal handshake.
RuntimeConfig victimAndThief() {
  RuntimeConfig Cfg;
  Cfg.GC = smallConfig();
  Cfg.NumVProcs = 2;
  Cfg.PinThreads = false;
  return Cfg;
}

uint64_t identity(int64_t I, void *) { return static_cast<uint64_t>(I); }

/// Elements of a one-leaf environment rope.
constexpr int64_t EnvElems = 300;

/// One test's shared state, passed to the run as its Ctx: what the
/// spawned task saw (written by whichever vproc ran it) and what the
/// victim observed.
struct Probe {
  std::atomic<unsigned> RanOn{0}; ///< vproc id + 1; 0 = not started
  std::atomic<int64_t> EnvLength{-1};
  JoinCounter Join{1};
  // What the victim saw; each test sets its own.
  bool StartedMidBuild = false;
  bool AnsweredMidLoop = false;
  bool ReadThroughHusk = false;
  bool SignalPending = false;
  bool SignalTaken = false;
  int64_t Length = -1; ///< rope length the victim read
  uint64_t Last = 0;   ///< last element the victim read
};

void recordTask(Runtime &, VProc &VP, Task T) {
  auto &P = *static_cast<Probe *>(T.Ctx);
  P.EnvLength.store(T.Env.isNil() ? 0 : rope::length(T.Env));
  P.RanOn.store(VP.id() + 1);
  P.Join.sub();
}

} // namespace

TEST(StealSignal, TaskLeavesWhileVictimAllocatesWithoutPolling) {
  Runtime RT(victimAndThief(), Topology::uniform(1, 2));
  Probe P;
  RT.run(
      [](Runtime &, VProc &VP, void *Ctx) {
        auto &P = *static_cast<Probe *>(Ctx);
        RootScope S(VP.heap());
        VP.spawn({recordTask, &P, Value::nil(), 0, 0});
        // Build 8 MiB ropes -- thousands of allocations per rope, and no
        // poll anywhere -- until the task has started or two seconds
        // pass. Were steals answered only at polls, it could start only
        // after this loop.
        constexpr int64_t Elems = 1024 * 1024;
        const auto Deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        do {
          RootScope Round(VP.heap());
          Ref<> Big = rope::fromFunction(Round, Elems, identity, nullptr);
          P.Length = rope::length(Big);
          P.Last = rope::get(Big, Elems - 1);
        } while (P.RanOn.load() == 0 &&
                 std::chrono::steady_clock::now() < Deadline);
        P.StartedMidBuild = P.RanOn.load() != 0;
        VP.joinWait(P.Join);
      },
      &P);

  EXPECT_TRUE(P.StartedMidBuild)
      << "the queued task must be stolen before the victim's loop ends";
  EXPECT_EQ(P.RanOn.load(), 2u) << "the task runs on the thief, vproc 1";
  EXPECT_EQ(P.Length, 1024 * 1024);
  EXPECT_EQ(P.Last, 1024u * 1024 - 1);
  EXPECT_EQ(RT.vproc(0).stealsServiced(), 1u);
}

TEST(StealSignal, VictimReadsStolenEnvironmentThroughItsHusk) {
  Runtime RT(victimAndThief(), Topology::uniform(1, 2));
  Probe P;
  RT.run(
      [](Runtime &, VProc &VP, void *Ctx) {
        auto &P = *static_cast<Probe *>(Ctx);
        RootScope S(VP.heap());
        Ref<> Env = rope::fromFunction(S, EnvElems, identity, nullptr);
        // Two minor collections move the environment into old data,
        // where the loop's minor collections leave the husk (and this
        // handle's pointer to it) alone: nothing in the loop survives,
        // so no major collection repairs the slot before the reads.
        VP.heap().minorGC();
        VP.heap().minorGC();
        VP.spawn({recordTask, &P, Env.value(), 0, 0});
        const auto Deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (std::chrono::steady_clock::now() < Deadline) {
          {
            RootScope Garbage(VP.heap());
            rope::fromFunction(Garbage, rope::LeafElems, identity, nullptr);
          }
          if (VP.stealsServiced() == 0)
            continue;
          // The steal was answered inside the allocation above, which
          // promoted the environment out from under this handle.
          P.AnsweredMidLoop = true;
          P.ReadThroughHusk = isForwardWord(headerOf(Env.value().asPtr()));
          P.Length = rope::length(Env);
          P.Last = rope::get(Env, EnvElems - 1);
          break;
        }
        VP.joinWait(P.Join);
      },
      &P);

  ASSERT_TRUE(P.AnsweredMidLoop) << "the steal must be answered mid-loop";
  EXPECT_TRUE(P.ReadThroughHusk) << "the reads must go through the promotion husk";
  EXPECT_EQ(P.Length, EnvElems);
  EXPECT_EQ(P.Last, static_cast<uint64_t>(EnvElems - 1));
  EXPECT_EQ(P.EnvLength.load(), EnvElems);
  EXPECT_EQ(P.RanOn.load(), 2u);
}

TEST(StealSignal, SignalAnsweredAtPollLeavesAllocationWorking) {
  Runtime RT(victimAndThief(), Topology::uniform(1, 2));
  Probe P;
  RT.run(
      [](Runtime &, VProc &VP, void *Ctx) {
        auto &P = *static_cast<Probe *>(Ctx);
        VProcHeap &H = VP.heap();
        VP.spawn({recordTask, &P, Value::nil(), 0, 0});
        // Answer at polls only: nothing here allocates.
        while (VP.stealsServiced() == 0) {
          VP.poll();
          std::this_thread::yield();
        }
        // The thief posts, then signals: wait until its flag and limit
        // zero have both landed, on a request already answered.
        while (!H.stealSignalled() || !H.gcSignalled())
          std::this_thread::yield();
        P.SignalPending = true;

        RootScope S(H);
        Ref<> After =
            rope::fromFunction(S, 3 * rope::LeafElems + 7, identity, nullptr);
        for (int I = 0; I < 1000; ++I) {
          RootScope Garbage(H);
          rope::fromFunction(Garbage, 64, identity, nullptr);
        }
        P.SignalTaken = !H.stealSignalled();
        P.Length = rope::length(After);
        P.Last = rope::get(After, 3 * rope::LeafElems + 6);
        VP.joinWait(P.Join);
      },
      &P);

  EXPECT_TRUE(P.SignalPending);
  EXPECT_TRUE(P.SignalTaken) << "the next slow-path entry takes the flag";
  EXPECT_EQ(P.Length, 3 * rope::LeafElems + 7);
  EXPECT_EQ(P.Last, static_cast<uint64_t>(3 * rope::LeafElems + 6));
  EXPECT_EQ(RT.vproc(0).stealsServiced(), 1u)
      << "the stale signal must not answer anything twice";
  EXPECT_EQ(P.RanOn.load(), 2u);
}
