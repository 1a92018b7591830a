//===- tests/RuntimeTest.cpp - runtime, scheduler, combinators ------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "GCTestUtils.h"
#include "gc/HeapVerifier.h"
#include "runtime/Parallel.h"
#include "runtime/ParkLot.h"
#include "runtime/Runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

using namespace manti;
using namespace manti::test;

namespace {

RuntimeConfig testRuntimeConfig(unsigned NumVProcs) {
  RuntimeConfig Cfg;
  Cfg.GC = smallConfig();
  Cfg.NumVProcs = NumVProcs;
  Cfg.PinThreads = false; // single-core CI container
  return Cfg;
}

} // namespace

TEST(Runtime, RunExecutesMainOnVProc0) {
  Runtime RT(testRuntimeConfig(2), Topology::uniform(2, 1));
  static unsigned SeenId = 99;
  RT.run([](Runtime &, VProc &VP, void *) { SeenId = VP.id(); }, nullptr);
  EXPECT_EQ(SeenId, 0u);
}

TEST(Runtime, RunIsRepeatable) {
  Runtime RT(testRuntimeConfig(3), Topology::uniform(3, 1));
  static int Counter;
  Counter = 0;
  for (int I = 0; I < 3; ++I)
    RT.run([](Runtime &, VProc &, void *) { ++Counter; }, nullptr);
  EXPECT_EQ(Counter, 3);
}

TEST(Runtime, VProcsAssignedSparsely) {
  Runtime RT(testRuntimeConfig(4), Topology::uniform(4, 2));
  // 4 vprocs on 4 nodes: one per node.
  for (unsigned I = 0; I < 4; ++I)
    EXPECT_EQ(RT.vproc(I).node(), I);
}

TEST(Runtime, GlobalGCWakeupRingsParkedVProcs) {
  // The runtime wires the collector's wakeup hook to the ParkLot
  // broadcast: a global-GC trigger must end every doorbell park at once
  // instead of leaving parked vprocs to sleep out their backstops.
  Runtime RT(testRuntimeConfig(4), Topology::uniform(2, 2));
  ParkLot &Lot = RT.parkLot();
  std::vector<ParkLot::Token> Tokens;
  for (NodeId N = 0; N < Lot.numNodes(); ++N)
    Tokens.push_back(Lot.prepare(N));
  RT.world().notifyWakeupHook();
  for (NodeId N = 0; N < Lot.numNodes(); ++N) {
    auto Start = std::chrono::steady_clock::now();
    EXPECT_TRUE(Lot.park(N, Tokens[N], std::chrono::seconds(1)))
        << "node " << N << " must be rung by the GC wakeup hook";
    EXPECT_LT(std::chrono::steady_clock::now() - Start,
              std::chrono::milliseconds(500));
  }
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  Runtime RT(testRuntimeConfig(4), Topology::uniform(2, 2));
  static std::vector<std::atomic<int>> Hits(1000);
  for (auto &H : Hits)
    H.store(0);
  RT.run(
      [](Runtime &RT, VProc &VP, void *) {
        parallelFor(
            RT, VP, 0, 1000, 16,
            [](Runtime &, VProc &, int64_t Lo, int64_t Hi, void *) {
              for (int64_t I = Lo; I < Hi; ++I)
                Hits[static_cast<std::size_t>(I)].fetch_add(1);
            },
            nullptr);
      },
      nullptr);
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  Runtime RT(testRuntimeConfig(2), Topology::uniform(2, 1));
  static std::atomic<int> Count;
  Count = 0;
  RT.run(
      [](Runtime &RT, VProc &VP, void *) {
        parallelFor(
            RT, VP, 5, 5, 4,
            [](Runtime &, VProc &, int64_t, int64_t, void *) {
              Count.fetch_add(1);
            },
            nullptr);
        parallelFor(
            RT, VP, 0, 1, 4,
            [](Runtime &, VProc &, int64_t Lo, int64_t Hi, void *) {
              Count.fetch_add(static_cast<int>(Hi - Lo));
            },
            nullptr);
      },
      nullptr);
  EXPECT_EQ(Count.load(), 1);
}

TEST(ParallelFor, TasksAllocateFreely) {
  // Each range body allocates lists; collections run concurrently with
  // other vprocs' mutators -- the core of the paper's design.
  Runtime RT(testRuntimeConfig(4), Topology::uniform(2, 2));
  static std::atomic<int64_t> Total;
  Total = 0;
  RT.run(
      [](Runtime &RT, VProc &VP, void *) {
        parallelFor(
            RT, VP, 0, 200, 8,
            [](Runtime &, VProc &VP, int64_t Lo, int64_t Hi, void *) {
              for (int64_t I = Lo; I < Hi; ++I) {
                RootScope Scope(VP.heap());
                Ref<> L = Scope.root(makeIntList(VP.heap(), 40));
                Total.fetch_add(listSum(L));
              }
            },
            nullptr);
      },
      nullptr);
  EXPECT_EQ(Total.load(), 200 * intListSum(40));
}

TEST(ParallelSum, MatchesSerial) {
  Runtime RT(testRuntimeConfig(4), Topology::uniform(2, 2));
  static int64_t Result;
  RT.run(
      [](Runtime &RT, VProc &VP, void *) {
        Result = parallelSumInt64(
            RT, VP, 0, 100000, 512,
            [](Runtime &, VProc &, int64_t Lo, int64_t Hi, void *) {
              int64_t S = 0;
              for (int64_t I = Lo; I < Hi; ++I)
                S += I;
              return S;
            },
            nullptr);
      },
      nullptr);
  EXPECT_EQ(Result, int64_t(100000) * 99999 / 2);
}

TEST(ParallelSumDouble, MatchesSerial) {
  Runtime RT(testRuntimeConfig(3), Topology::uniform(3, 1));
  static double Result;
  RT.run(
      [](Runtime &RT, VProc &VP, void *) {
        Result = parallelSumDouble(
            RT, VP, 0, 4096, 64,
            [](Runtime &, VProc &, int64_t Lo, int64_t Hi, void *) {
              double S = 0;
              for (int64_t I = Lo; I < Hi; ++I)
                S += 0.5 * static_cast<double>(I);
              return S;
            },
            nullptr);
      },
      nullptr);
  EXPECT_DOUBLE_EQ(Result, 0.5 * 4096.0 * 4095.0 / 2.0);
}

TEST(ParallelReduce, BuildsValueTree) {
  Runtime RT(testRuntimeConfig(4), Topology::uniform(2, 2));
  static int64_t Sum;
  RT.run(
      [](Runtime &RT, VProc &VP, void *) {
        // Leaf: list of the range's integers. Combine: concatenation via
        // a cons of the two lists' sums (keep it simple: sum lists).
        Value Result = parallelReduce(
            RT, VP, 0, 3000, 100,
            [](Runtime &, VProc &VP, int64_t Lo, int64_t Hi, void *) {
              RootScope Scope(VP.heap());
              Ref<> L = Scope.root(Value::nil());
              for (int64_t I = Lo; I < Hi; ++I)
                L = cons(VP.heap(), Value::fromInt(I), L);
              return L.value();
            },
            [](Runtime &, VProc &VP, Value A, Value B, void *) {
              // Combine: single cell holding the sum of both sides.
              int64_t S = (A.isPtr() ? listSum(A) : A.asInt()) +
                          (B.isPtr() ? listSum(B) : B.asInt());
              (void)VP;
              return Value::fromInt(S);
            },
            nullptr);
        Sum = Result.isPtr() ? listSum(Result) : Result.asInt();
      },
      nullptr);
  EXPECT_EQ(Sum, int64_t(3000) * 2999 / 2);
}

TEST(WorkStealing, StealsHappenAcrossVProcs) {
  Runtime RT(testRuntimeConfig(4), Topology::uniform(2, 2));
  static std::atomic<int> Remaining;
  Remaining = 40;
  RT.run(
      [](Runtime &, VProc &VP, void *) {
        // Spawn tasks but never run them locally: the spawner only
        // answers steal requests, so every task must migrate.
        for (int I = 0; I < 40; ++I)
          VP.spawn({[](Runtime &, VProc &, Task) { Remaining.fetch_sub(1); },
                    nullptr, Value::nil(), 0, 0});
        while (Remaining.load() > 0) {
          VP.poll();
          std::this_thread::yield();
        }
      },
      nullptr);
  uint64_t TotalSteals = 0, TotalBatches = 0;
  for (unsigned I = 0; I < RT.numVProcs(); ++I) {
    TotalSteals += RT.vproc(I).stealsOut();
    TotalBatches += RT.vproc(I).schedStats().StealBatches;
  }
  // Each task leaves vproc 0 exactly once; tasks queued from a stolen
  // batch may migrate again, so total stolen tasks can exceed 40.
  EXPECT_EQ(RT.vproc(0).stealsServiced(), 40u);
  EXPECT_GE(TotalSteals, 40u)
      << "every task must have been stolen by an idle vproc";
  EXPECT_GE(TotalSteals, TotalBatches)
      << "a successful handshake carries at least one task";
}

TEST(WorkStealing, GlobalCollectionDuringParallelWork) {
  RuntimeConfig Cfg = testRuntimeConfig(4);
  Cfg.GC.GlobalGCBytesPerVProc = 64 * 1024; // force global GCs
  Runtime RT(Cfg, Topology::uniform(2, 2));
  static std::atomic<int64_t> Total;
  Total = 0;
  RT.run(
      [](Runtime &RT, VProc &VP, void *) {
        parallelFor(
            RT, VP, 0, 300, 4,
            [](Runtime &, VProc &VP, int64_t Lo, int64_t Hi, void *) {
              for (int64_t I = Lo; I < Hi; ++I) {
                RootScope Scope(VP.heap());
                Ref<> L = Scope.root(makeIntList(VP.heap(), 60));
                promoteInPlace(Scope, L); // drive the global trigger
                Total.fetch_add(listSum(L));
              }
            },
            nullptr);
      },
      nullptr);
  EXPECT_EQ(Total.load(), 300 * intListSum(60));
  EXPECT_GE(RT.world().globalGCCount(), 1u);
  verifyWorld(RT.world());
}

TEST(WorkStealing, ConcurrentMarkDuringParallelWork) {
  // Phase-flip hammer: tiny budget plus heavy promotion drives repeated
  // concurrent cycles (init rendezvous -> marker tasks + assists ->
  // terminal rendezvous) while every worker thread keeps mutating and
  // overwriting roots. Runs under TSan via the sched label: the marker
  // reads only below the stamped MarkLimit, so tracing and bump
  // allocation must never touch the same words.
  RuntimeConfig Cfg = testRuntimeConfig(4);
  Cfg.GC.GlobalGCBytesPerVProc = 64 * 1024;
  Cfg.GC.ConcurrentGlobal = true;
  Runtime RT(Cfg, Topology::uniform(2, 2));
  static std::atomic<int64_t> Total;
  Total = 0;
  RT.run(
      [](Runtime &RT, VProc &VP, void *) {
        parallelFor(
            RT, VP, 0, 300, 4,
            [](Runtime &, VProc &VP, int64_t Lo, int64_t Hi, void *) {
              for (int64_t I = Lo; I < Hi; ++I) {
                RootScope Scope(VP.heap());
                Ref<> L = Scope.root(makeIntList(VP.heap(), 60));
                promoteInPlace(Scope, L); // drive the watermark
                // Overwrite the rooted slot mid-cycle: deletion-barrier
                // traffic from every worker thread.
                L = makeIntList(VP.heap(), 10);
                Total.fetch_add(listSum(L.value()));
              }
            },
            nullptr);
        // The watermark is checked once per WatermarkStrideBytes of each
        // vproc's own allocation, so evenly split work can finish below
        // every vproc's next check. Promoting watermark + one stride
        // through vproc 0 alone starts a cycle whatever the split was.
        // A stop-the-world backstop collection resets the since-cycle
        // counters, so the volume restarts after one.
        GCWorld &W = RT.world();
        auto StwCount = [&W] {
          return W.globalGCCount() - W.concurrentGCCount();
        };
        const uint64_t Volume =
            static_cast<uint64_t>(RT.config().GC.ConcurrentMarkWatermark *
                                  static_cast<double>(
                                      W.globalGCThresholdBytes())) +
            GCWorld::WatermarkStrideBytes;
        uint64_t Start = VP.heap().Stats.PromoteBytes;
        uint64_t Stw = StwCount();
        while (VP.heap().Stats.PromoteBytes - Start < Volume) {
          RootScope Scope(VP.heap());
          Ref<> L = Scope.root(makeIntList(VP.heap(), 60));
          promoteInPlace(Scope, L);
          if (StwCount() != Stw) {
            Stw = StwCount();
            Start = VP.heap().Stats.PromoteBytes;
          }
        }
      },
      nullptr);
  EXPECT_EQ(Total.load(), 300 * intListSum(10));
  EXPECT_GE(RT.world().concurrentGCCount(), 1u)
      << "the promotion volume must start concurrent cycles";
  EXPECT_EQ(RT.world().phase(), GCPhase::Idle)
      << "run() must not return with a cycle in flight";
  verifyWorld(RT.world());
}

TEST(WorkStealing, LazyPromotesAtMostStolenTasks) {
  // Lazy promotion: environment promotions happen only for stolen tasks.
  RuntimeConfig Cfg = testRuntimeConfig(3);
  Cfg.LazyPromotion = true;
  Runtime RT(Cfg, Topology::uniform(3, 1));

  struct SpawnEnvJob {
    JoinCounter Join;
  };
  static SpawnEnvJob Job;

  RT.run(
      [](Runtime &RT, VProc &VP, void *) {
        (void)RT;
        RootScope Scope(VP.heap());
        for (int I = 0; I < 200; ++I) {
          Ref<> Env = Scope.root(makeIntList(VP.heap(), 10));
          Job.Join.add();
          VP.spawn({[](Runtime &, VProc &VP2, Task T) {
                      // Environment must be intact wherever we run.
                      EXPECT_EQ(listSum(T.Env), intListSum(10));
                      (void)VP2;
                      Job.Join.sub();
                    },
                    nullptr, Env, 0, 0});
        }
        VP.joinWait(Job.Join);
      },
      nullptr);

  uint64_t Promotions = 0, Migrations = 0;
  for (unsigned I = 0; I < RT.numVProcs(); ++I) {
    Promotions += RT.world().heap(I).Stats.PromoteCalls;
    // The steal handshake is the only migration channel.
    Migrations += RT.vproc(I).stealsServiced();
  }
  EXPECT_LE(Promotions, Migrations)
      << "lazy promotion pays only for tasks that actually migrate";
}

TEST(WorkStealing, EagerPromotesEverySpawnWithEnv) {
  RuntimeConfig Cfg = testRuntimeConfig(2);
  Cfg.LazyPromotion = false;
  Runtime RT(Cfg, Topology::uniform(2, 1));

  static JoinCounter Join;
  RT.run(
      [](Runtime &, VProc &VP, void *) {
        RootScope Scope(VP.heap());
        for (int I = 0; I < 50; ++I) {
          Ref<> Env = Scope.root(makeIntList(VP.heap(), 5));
          Join.add();
          VP.spawn({[](Runtime &, VProc &, Task T) {
                      EXPECT_EQ(listSum(T.Env), intListSum(5));
                      Join.sub();
                    },
                    nullptr, Env, 0, 0});
        }
        VP.joinWait(Join);
      },
      nullptr);

  EXPECT_GE(RT.world().heap(0).Stats.PromoteCalls, 50u)
      << "eager promotion pays on every spawn";
}

TEST(SchedulerStats, SpawnsCounted) {
  Runtime RT(testRuntimeConfig(2), Topology::uniform(2, 1));
  RT.run(
      [](Runtime &RT, VProc &VP, void *) {
        parallelFor(
            RT, VP, 0, 64, 1,
            [](Runtime &, VProc &, int64_t, int64_t, void *) {},
            nullptr);
      },
      nullptr);
  uint64_t Spawns = 0;
  for (unsigned I = 0; I < RT.numVProcs(); ++I)
    Spawns += RT.vproc(I).spawns();
  EXPECT_GT(Spawns, 0u);
}
