//===- tests/SchedulerTest.cpp - topology-aware work stealing -------------===//
//
// Part of the manticore-gc project.
//
// Covers the Scheduler subsystem: proximity-tier victim ordering, steal
// batching, the cross-thread queue
// depth counter, the idle wait's park accounting, the ParkLot
// doorbells (node-exact rings, broadcast, and the ring-vs-park race),
// spawn affinity routing, steals through the real fork-join entry
// points (parallelFor, parallelReduce), and a steal handshake hammer
// (the regression test for the StealRequest release/acquire protocol;
// CI runs this binary under ThreadSanitizer).
//
//===----------------------------------------------------------------------===//

#include "GCTestUtils.h"
#include "gc/GCReport.h"
#include "runtime/Parallel.h"
#include "runtime/ParkLot.h"
#include "runtime/Runtime.h"
#include "runtime/Scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <set>
#include <thread>

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

Task trivialTask() {
  return {[](Runtime &, VProc &, Task) {}, nullptr, Value::nil(), 0, 0};
}

} // namespace

//===----------------------------------------------------------------------===//
// Proximity ordering
//===----------------------------------------------------------------------===//

TEST(Scheduler, ProximityTiersPutSameNodeFirstOnAmd) {
  // The 48-core AMD machine (4 G34 packages, 8 nodes) with 16 vprocs:
  // the sparse assignment puts vprocs V and V+8 on node V.
  Runtime RT(testRuntimeConfig(16), Topology::amdMagnyCours48());
  const Topology &Topo = RT.world().topology();
  Scheduler &Sched = RT.scheduler();

  for (unsigned V = 0; V < 16; ++V) {
    const auto &Tiers = Sched.proximityOrder(V);
    ASSERT_FALSE(Tiers.empty());

    // Tier 0 is exactly the other vprocs on V's node.
    std::set<unsigned> Tier0(Tiers[0].begin(), Tiers[0].end());
    std::set<unsigned> SameNode;
    for (unsigned U = 0; U < 16; ++U)
      if (U != V && RT.vproc(U).node() == RT.vproc(V).node())
        SameNode.insert(U);
    EXPECT_EQ(Tier0, SameNode) << "vproc " << V;

    // Tiers are strictly increasing in hop distance, uniform within a
    // tier, and cover every other vproc exactly once.
    unsigned Seen = 0;
    int PrevHops = -1;
    for (const auto &Tier : Tiers) {
      ASSERT_FALSE(Tier.empty());
      unsigned Hops =
          Topo.hopCount(RT.vproc(V).node(), RT.vproc(Tier[0]).node());
      EXPECT_GT(static_cast<int>(Hops), PrevHops);
      PrevHops = static_cast<int>(Hops);
      for (unsigned U : Tier) {
        EXPECT_NE(U, V);
        EXPECT_EQ(Topo.hopCount(RT.vproc(V).node(), RT.vproc(U).node()),
                  Hops);
        ++Seen;
      }
    }
    EXPECT_EQ(Seen, 15u);
  }
}

TEST(Scheduler, ProximityTiersOnFourNodeMachine) {
  // 4 nodes x 2 cores, 8 vprocs: vprocs V and V+4 share node V.
  Runtime RT(testRuntimeConfig(8), Topology::uniform(4, 2));
  Scheduler &Sched = RT.scheduler();
  for (unsigned V = 0; V < 8; ++V) {
    const auto &Tiers = Sched.proximityOrder(V);
    ASSERT_EQ(Tiers.size(), 2u); // same node, then everything at 1 hop
    ASSERT_EQ(Tiers[0].size(), 1u);
    EXPECT_EQ(Tiers[0][0], (V + 4) % 8);
    EXPECT_EQ(Tiers[1].size(), 6u);
  }
}

TEST(Scheduler, LoadedSameNodeVictimPreferred) {
  Runtime RT(testRuntimeConfig(8), Topology::uniform(4, 2));
  Scheduler &Sched = RT.scheduler();

  // Load the same-node peer of vproc 0 (vproc 4) *and* a remote vproc
  // (vproc 1). Workers are idle-draining and no steal is in flight, so
  // pushing onto their queues from here is safe.
  for (int I = 0; I < 4; ++I) {
    RT.vproc(4).spawn(trivialTask());
    RT.vproc(1).spawn(trivialTask());
  }

  for (int Trial = 0; Trial < 100; ++Trial) {
    VProc *Victim = Sched.pickVictim(RT.vproc(0));
    ASSERT_NE(Victim, nullptr);
    EXPECT_EQ(Victim->id(), 4u)
        << "a loaded same-node victim must beat a loaded remote one";
  }
}

TEST(Scheduler, PatienceGatesFartherTiers) {
  Runtime RT(testRuntimeConfig(8), Topology::uniform(4, 2));
  Scheduler &Sched = RT.scheduler();
  VProc &Thief = RT.vproc(0);
  EXPECT_EQ(Sched.patienceOf(0), 64u) << "the patience seed";

  // Load only a *remote* vproc; the thief's node peer (vproc 4) is dry.
  for (int I = 0; I < 8; ++I)
    RT.vproc(1).spawn(trivialTask());

  // Fresh thief: only tier 0 is probeable, and it is empty. Each
  // empty-handed round counts toward the unlock; tier 1 opens once the
  // failed rounds reach the patience (which the dry rounds may lower).
  unsigned Rounds = 0;
  while (Sched.pickVictim(Thief) == nullptr) {
    ASSERT_LT(Rounds, Sched.patienceOf(0))
        << "tier 1 must open once the failed rounds reach the patience";
    EXPECT_FALSE(Sched.stealAndRun(Thief));
    ++Rounds;
  }
  EXPECT_EQ(Rounds, Sched.patienceOf(0))
      << "tier 1 must stay locked until the failed rounds reach the patience";
  EXPECT_EQ(Sched.pickVictim(Thief)->id(), 1u);

  // A successful steal (a real handshake: vproc 1's worker answers from
  // its idle poll loop) resets the throttle, locking tier 1 again.
  EXPECT_TRUE(Sched.stealAndRun(Thief));
  EXPECT_EQ(Sched.pickVictim(Thief), nullptr);
}

//===----------------------------------------------------------------------===//
// Queue depth (cross-thread)
//===----------------------------------------------------------------------===//

TEST(Scheduler, QueueDepthReadableFromOtherThreads) {
  Runtime RT(testRuntimeConfig(2), Topology::uniform(2, 1));
  VProc &VP = RT.vproc(0);
  EXPECT_EQ(VP.queueDepth(), 0u);
  for (int I = 0; I < 5; ++I)
    VP.spawn(trivialTask());
  // The depth counter, not the deque, is what other threads read.
  std::size_t Observed = 0;
  std::thread Reader([&] { Observed = VP.queueDepth(); });
  Reader.join();
  EXPECT_EQ(Observed, 5u);
  EXPECT_TRUE(VP.runOneLocal());
  EXPECT_EQ(VP.queueDepth(), 4u);
  while (VP.runOneLocal())
    ;
  EXPECT_EQ(VP.queueDepth(), 0u);
}

//===----------------------------------------------------------------------===//
// Steal batching
//===----------------------------------------------------------------------===//

TEST(Scheduler, OneHandshakeMovesHalfTheQueueUpToTheCap) {
  // One handshake answers with min(ceil(k/2), MaxTaskBatch) tasks.
  // Deterministic setup: load vproc 2 (the thief's node-0 peer on
  // uniform(2,2)) between runs, then drive one stealAndRun from the
  // test thread as vproc 0; vproc 2's worker answers from its drain
  // poll loop.
  for (unsigned Depth : {1u, 2u, 7u, 16u, 40u}) {
    SCOPED_TRACE(Depth);
    Runtime RT(testRuntimeConfig(4), Topology::uniform(2, 2));
    ASSERT_EQ(RT.vproc(2).node(), RT.vproc(0).node());
    for (unsigned I = 0; I < Depth; ++I)
      RT.vproc(2).spawn(trivialTask());
    ASSERT_EQ(RT.vproc(2).queueDepth(), Depth);

    ASSERT_TRUE(RT.scheduler().stealAndRun(RT.vproc(0)));
    SchedStats S = RT.vproc(0).schedStats();
    uint64_t Moved = std::min((Depth + 1) / 2, MaxTaskBatch);
    EXPECT_EQ(S.StealBatches, 1u);
    EXPECT_EQ(S.TasksStolen, Moved);
    EXPECT_EQ(RT.vproc(2).queueDepth(), Depth - Moved);
    // One stolen task ran, the rest landed on the thief's queue.
    EXPECT_EQ(RT.vproc(0).queueDepth(), Moved - 1);
    for (unsigned V : {0u, 2u})
      while (RT.vproc(V).runOneLocal())
        ;
  }
}

//===----------------------------------------------------------------------===//
// Idle wait
//===----------------------------------------------------------------------===//

TEST(Scheduler, IdleVProcsParkAndAccountTheTime) {
  Runtime RT(testRuntimeConfig(4), Topology::uniform(2, 2));
  RT.run(
      [](Runtime &RT, VProc &, void *) {
        // No work spawned: the three workers look for work for the spin
        // budget, then park. The budget is time, but on a loaded host a
        // descheduled worker can take milliseconds to spend it, so no
        // fixed window is long enough. Wait instead until a worker sits
        // on a doorbell at two polls in a row (a single sighting could
        // be a park left over from before the run, which is not
        // counted); the deadline only bounds a real failure.
        ParkLot &Lot = RT.parkLot();
        auto AnyParked = [&Lot] {
          for (NodeId N = 0; N < Lot.numNodes(); ++N)
            if (Lot.parkedOn(N) > 0)
              return true;
          return false;
        };
        const auto Deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        unsigned Sightings = 0;
        while (Sightings < 2 && std::chrono::steady_clock::now() < Deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          Sightings = AnyParked() ? Sightings + 1 : 0;
        }
      },
      nullptr);
  SchedStats S = RT.aggregateSchedStats();
  EXPECT_GT(S.Parks, 0u) << "idle workers must reach the park rung";
  EXPECT_GT(S.ParkNanos, 0u);
  EXPECT_GT(S.FailedStealRounds, 0u);
}

//===----------------------------------------------------------------------===//
// ParkLot doorbells (run under TSan in CI)
//===----------------------------------------------------------------------===//

TEST(Doorbell, RingWakesExactlyTheRingedNode) {
  ParkLot Lot(2);
  std::atomic<int> Woken0{-1}, Woken1{-1};
  std::atomic<bool> Ready0{false}, Ready1{false};

  std::thread P0([&] {
    ParkLot::Token T = Lot.prepare(0);
    Ready0.store(true);
    Woken0.store(Lot.park(0, T, std::chrono::milliseconds(2000)) ? 1 : 0);
  });
  std::thread P1([&] {
    ParkLot::Token T = Lot.prepare(1);
    Ready1.store(true);
    // This parker must NOT be woken by the node-0 ring: it runs out its
    // backstop instead.
    Woken1.store(Lot.park(1, T, std::chrono::milliseconds(600)) ? 1 : 0);
  });

  // Wait until both are registered (a ring between prepare and park is
  // fine -- the epoch snapshot catches it), then ring node 0 only.
  while (!Ready0.load() || !Ready1.load())
    std::this_thread::yield();
  Lot.ring(0);
  P0.join();
  P1.join();
  EXPECT_EQ(Woken0.load(), 1) << "ringed node must wake by ring";
  EXPECT_EQ(Woken1.load(), 0) << "other node must run out its backstop";
}

TEST(Doorbell, BroadcastWakesAllNodes) {
  constexpr unsigned Nodes = 4;
  ParkLot Lot(Nodes);
  std::atomic<unsigned> Rung{0};
  std::vector<std::thread> Parkers;
  for (unsigned N = 0; N < Nodes; ++N) {
    Parkers.emplace_back([&, N] {
      ParkLot::Token T = Lot.prepare(N);
      if (Lot.park(N, T, std::chrono::milliseconds(2000)))
        Rung.fetch_add(1);
    });
  }
  for (unsigned N = 0; N < Nodes; ++N)
    while (Lot.parkedOn(N) == 0)
      std::this_thread::yield();
  Lot.ringBroadcast();
  for (std::thread &P : Parkers)
    P.join();
  EXPECT_EQ(Rung.load(), Nodes) << "a broadcast must wake every node";
}

TEST(Doorbell, NoLostWakeupWhenRingRacesPark) {
  // The protocol's contract: a ring sent after the parker's prepare()
  // fails the futex value check, and one sent before it is caught by the
  // parker's own condition re-check -- no interleaving sleeps through a
  // ring. A lost wake-up here would turn every round into a full 100 ms
  // backstop timeout, so the timeout count is the observable.
  constexpr int Rounds = 300;
  ParkLot Lot(1);
  std::atomic<int> Flag{0};
  std::atomic<int> Timeouts{0};

  std::thread Parker([&] {
    for (int I = 1; I <= Rounds; ++I) {
      while (Flag.load(std::memory_order_acquire) < I) {
        ParkLot::Token T = Lot.prepare(0);
        if (Flag.load(std::memory_order_acquire) >= I) {
          Lot.cancel(0, T);
          break;
        }
        if (!Lot.park(0, T, std::chrono::milliseconds(100)))
          Timeouts.fetch_add(1);
      }
    }
  });
  for (int I = 1; I <= Rounds; ++I) {
    Flag.store(I, std::memory_order_release);
    Lot.ring(0);
    // Lock-step: let the parker consume round I before round I+1, so
    // every round really exercises a fresh park/ring race.
    while (Flag.load(std::memory_order_acquire) == I &&
           Lot.parkedOn(0) == 0 && I < Rounds)
      std::this_thread::yield();
  }
  Parker.join();
  // A scheduling stall can time out the odd round (the ring arrives
  // while the parker is descheduled before prepare); systematic losses
  // would time out nearly all of them.
  EXPECT_LT(Timeouts.load(), Rounds / 4)
      << "rings racing parks must not be lost";
}

TEST(Scheduler, SpawnRingsDoorbellsAndWorkCompletes) {
  Runtime RT(testRuntimeConfig(4), Topology::uniform(2, 2));
  static std::atomic<int> Remaining;
  Remaining = 200;
  RT.run(
      [](Runtime &RT2, VProc &VP, void *) {
        // Let a worker descend to the park rung first, so the spawn
        // rings below have a parked vproc to wake. The settle sleep comes
        // first: a worker still parked in the between-runs drain loop
        // (which records no stats) would satisfy the wait below, and the
        // spawns could then finish before any in-run park is counted.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        while (RT2.parkLot().parkedOn(0) == 0 &&
               RT2.parkLot().parkedOn(1) == 0)
          std::this_thread::yield();
        static JoinCounter Join;
        for (int I = 0; I < 200; ++I) {
          Join.add();
          VP.spawn({[](Runtime &, VProc &, Task) {
                      Remaining.fetch_sub(1);
                      Join.sub();
                    },
                    nullptr, Value::nil(), 0, 0});
        }
        VP.joinWait(Join);
      },
      nullptr);
  EXPECT_EQ(Remaining.load(), 0);
  SchedStats S = RT.aggregateSchedStats();
  EXPECT_GT(S.RingsSent, 0u) << "every spawn attempts a doorbell ring";
  EXPECT_GT(S.Parks, 0u);
}

//===----------------------------------------------------------------------===//
// Spawn affinity
//===----------------------------------------------------------------------===//

TEST(Scheduler, PopForStealPrefersThiefAffineTasks) {
  // 4 vprocs on uniform(2, 2): vprocs 0/2 on node 0, vprocs 1/3 on
  // node 1. Queue mixed-affinity tasks on vproc 0 (its owner thread is
  // this one, between runs) and pop for a node-1 thief.
  Runtime RT(testRuntimeConfig(4), Topology::uniform(2, 2));
  VProc &VP = RT.vproc(0);
  ASSERT_EQ(VP.node(), 0u);
  ASSERT_EQ(RT.vproc(1).node(), 1u);

  const NodeId Hints[6] = {1, Task::NoAffinity, 0, 1, Task::NoAffinity, 0};
  for (int I = 0; I < 6; ++I) {
    Task T = trivialTask();
    T.A = I;
    T.Affinity = Hints[I];
    VP.spawn(T);
  }

  // A node-1 thief gets the node-1-hinted tasks first, then unhinted.
  Task Out[MaxTaskBatch];
  unsigned Matches = 0;
  unsigned Got = VP.popForSteal(/*ThiefNode=*/1, 3, Out, &Matches);
  ASSERT_EQ(Got, 3u);
  EXPECT_EQ(Matches, 2u);
  EXPECT_EQ(Out[0].A, 0); // hinted at node 1, oldest
  EXPECT_EQ(Out[1].A, 3); // hinted at node 1
  EXPECT_EQ(Out[2].A, 1); // unhinted

  // Work conservation: with no matching or unhinted tasks left, a
  // node-1 thief still gets the node-0-hinted leftovers.
  Got = VP.popForSteal(/*ThiefNode=*/1, 3, Out, &Matches);
  ASSERT_EQ(Got, 3u);
  EXPECT_EQ(Matches, 0u);
  EXPECT_EQ(Out[0].A, 4); // unhinted beats hinted-elsewhere
  EXPECT_EQ(Out[1].A, 2); // hinted at node 0, oldest
  EXPECT_EQ(Out[2].A, 5);
  EXPECT_EQ(VP.queueDepth(), 0u);
}

TEST(Scheduler, AffinityTasksFlowToTheirNode) {
  // End-to-end: tasks hinted at node 1 run there. uniform(2, 1) with 2
  // vprocs puts the spawner alone on node 0 and the only thief on node
  // 1. The spawner never runs its own queue (it only answers steal
  // requests), so every hinted task is stolen, and every handover is an
  // affinity match.
  Runtime RT(testRuntimeConfig(2), Topology::uniform(2, 1));
  ASSERT_EQ(RT.vproc(0).node(), 0u);
  ASSERT_EQ(RT.vproc(1).node(), 1u);
  constexpr int Tasks = 64;
  static std::atomic<int> Remaining, RanOnNode1;
  Remaining = Tasks;
  RanOnNode1 = 0;
  RT.run(
      [](Runtime &, VProc &VP, void *) {
        for (int I = 0; I < Tasks; ++I) {
          Task T{[](Runtime &, VProc &VP2, Task) {
                   if (VP2.node() == 1)
                     RanOnNode1.fetch_add(1);
                   Remaining.fetch_sub(1);
                 },
                 nullptr, Value::nil(), 0, 0};
          T.Affinity = 1;
          VP.spawn(T);
        }
        while (Remaining.load() > 0) {
          VP.poll();
          std::this_thread::yield();
        }
      },
      nullptr);
  EXPECT_EQ(Remaining.load(), 0);
  EXPECT_EQ(RanOnNode1.load(), Tasks);
  SchedStats S = RT.aggregateSchedStats();
  EXPECT_EQ(S.TasksStolen, static_cast<uint64_t>(Tasks));
  EXPECT_EQ(S.AffinityHandoffs, static_cast<uint64_t>(Tasks))
      << "every task handed to the node-1 thief is an affinity match";
}

//===----------------------------------------------------------------------===//
// Fork-join entry points: a spawner's queue is stolen while it joins
//===----------------------------------------------------------------------===//

namespace {

constexpr int64_t ForkJoinLeaves = 128;

/// Bitmask of the vprocs that ran a leaf, and the number of leaves run.
std::atomic<unsigned> LeafVProcs;
std::atomic<int64_t> LeavesRun;

/// A ~100 us leaf: long enough that thieves find the spawner's queue
/// non-empty while it works through it.
void spinLeaf(VProc &VP) {
  LeafVProcs.fetch_or(1u << VP.id());
  LeavesRun.fetch_add(1);
  auto End = std::chrono::steady_clock::now() + std::chrono::microseconds(100);
  while (std::chrono::steady_clock::now() < End) {
  }
}

/// Runs \p Main on 4 vprocs and checks that its leaves were spread by
/// steals: the spawner must answer steal requests from inside joinWait.
void expectLeavesStolen(MainFn Main) {
  Runtime RT(testRuntimeConfig(4), Topology::uniform(2, 2));
  LeafVProcs = 0;
  LeavesRun = 0;
  RT.run(Main, nullptr);
  EXPECT_EQ(LeavesRun.load(), ForkJoinLeaves);
  EXPECT_GT(RT.aggregateSchedStats().TasksStolen, 0u);
  EXPECT_GE(std::popcount(LeafVProcs.load()), 2)
      << "leaves ran only on vprocs mask " << LeafVProcs.load();
}

} // namespace

TEST(ForkJoin, ParallelForLeavesAreStolen) {
  expectLeavesStolen([](Runtime &RT, VProc &VP, void *) {
    parallelFor(
        RT, VP, 0, ForkJoinLeaves, 1,
        [](Runtime &, VProc &VP, int64_t, int64_t, void *) { spinLeaf(VP); },
        nullptr);
  });
}

TEST(ForkJoin, ParallelReduceLeavesAreStolen) {
  expectLeavesStolen([](Runtime &RT, VProc &VP, void *) {
    Value Sum = parallelReduce(
        RT, VP, 0, ForkJoinLeaves, 1,
        [](Runtime &, VProc &VP, int64_t Lo, int64_t, void *) {
          spinLeaf(VP);
          return Value::fromInt(Lo);
        },
        [](Runtime &, VProc &, Value L, Value R, void *) {
          return Value::fromInt(L.asInt() + R.asInt());
        },
        nullptr);
    EXPECT_EQ(Sum.asInt(), ForkJoinLeaves * (ForkJoinLeaves - 1) / 2);
  });
}

//===----------------------------------------------------------------------===//
// Handshake hammer (run under TSan in CI)
//===----------------------------------------------------------------------===//

TEST(Scheduler, HandshakeHammer) {
  // Hammer the StealRequest protocol from 8 vprocs at once: a fine-grain
  // parallelFor keeps every vproc both stealing and being stolen from,
  // then an environment-carrying spawn storm checks that batched
  // promotion delivers intact environments. The release/acquire pairs
  // documented on StealRequest are exactly what TSan checks here.
  Runtime RT(testRuntimeConfig(8), Topology::uniform(4, 2));

  constexpr int Parents = 250, Children = 3;
  static std::atomic<int> Remaining;
  Remaining = Parents * (1 + Children);

  RT.run(
      [](Runtime &, VProc &VP, void *) {
        RootScope Scope(VP.heap());
        // The spawner never runs its own tasks: every parent must be
        // stolen. Parents spawn children from whatever vproc ran them,
        // so workers become victims of each other too.
        for (int I = 0; I < Parents; ++I) {
          Ref<> Env = Scope.root(makeIntList(VP.heap(), 8));
          VP.spawn({[](Runtime &, VProc &VP2, Task T) {
                      EXPECT_EQ(listSum(T.Env), intListSum(8));
                      RootScope Inner(VP2.heap());
                      for (int C = 0; C < Children; ++C) {
                        Ref<> CEnv =
                            Inner.root(makeIntList(VP2.heap(), 8));
                        VP2.spawn({[](Runtime &, VProc &, Task CT) {
                                     EXPECT_EQ(listSum(CT.Env),
                                               intListSum(8));
                                     Remaining.fetch_sub(1);
                                   },
                                   nullptr, CEnv, 0, 0});
                      }
                      Remaining.fetch_sub(1);
                    },
                    nullptr, Env, 0, 0});
        }
        while (Remaining.load() > 0) {
          VP.poll();
          std::this_thread::yield();
        }
      },
      nullptr);

  EXPECT_EQ(Remaining.load(), 0);
  SchedStats S = RT.aggregateSchedStats();
  EXPECT_EQ(S.TasksServiced, S.TasksStolen)
      << "every task a victim hands over is received by exactly one thief";
  EXPECT_GT(S.StealBatches, 0u);
  EXPECT_GE(S.TasksStolen, static_cast<uint64_t>(Parents))
      << "every parent task must have migrated off the spawner";
}

//===----------------------------------------------------------------------===//
// Load balancing: adaptive patience and the queue-depth lifetime rule
// (the hammer runs under TSan in CI)
//===----------------------------------------------------------------------===//

TEST(Rebalance, AdaptivePatienceStaysWithinBounds) {
  Runtime RT(testRuntimeConfig(8), Topology::uniform(4, 2));
  Scheduler &Sched = RT.scheduler();
  VProc &Thief = RT.vproc(0);
  EXPECT_EQ(Sched.patienceOf(0), 64u);

  // A dry world: every round fails, so windows keep halving the
  // patience until it pins at the lower bound (8) -- never below.
  for (int I = 0; I < 400; ++I) {
    EXPECT_FALSE(Sched.stealAndRun(Thief));
    EXPECT_GE(Sched.patienceOf(0), 8u);
    EXPECT_LE(Sched.patienceOf(0), 512u);
  }
  EXPECT_EQ(Sched.patienceOf(0), 8u) << "dry rounds must pin at the minimum";
  SchedStats S = Thief.schedStats();
  EXPECT_GT(S.PatienceDrops, 0u);
  EXPECT_EQ(S.PatienceRaises, 0u);

  // A fed neighborhood: vproc 4 (same node) always has work, so every
  // round succeeds and the patience doubles up to -- never past -- the
  // upper bound (512).
  for (int I = 0; I < 400; ++I) {
    RT.vproc(4).spawn(trivialTask());
    EXPECT_TRUE(Sched.stealAndRun(Thief));
    EXPECT_LE(Sched.patienceOf(0), 512u);
    while (Thief.runOneLocal())
      ;
  }
  EXPECT_EQ(Sched.patienceOf(0), 512u) << "fed rounds must pin at the maximum";
  EXPECT_GT(Thief.schedStats().PatienceRaises, 0u);
}

TEST(Scheduler, QueueDepthTeardownHammer) {
  // The queueDepth lifetime protocol under TSan: external threads read
  // every vproc's depth counter -- the counter victim selection reads
  // from other threads -- continuously across run() epochs and the
  // between-runs drain, stopping before ~Runtime: the documented
  // contract for any cross-thread depth reader.
  Runtime RT(testRuntimeConfig(4), Topology::uniform(2, 2));
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Reads{0};
  std::atomic<unsigned> ReadersPassed{0}; ///< readers done with one pass
  std::vector<std::thread> Readers;
  for (int T = 0; T < 2; ++T) {
    Readers.emplace_back([&] {
      uint64_t Sink = 0;
      bool Passed = false;
      while (!Stop.load(std::memory_order_acquire)) {
        for (unsigned V = 0; V < 4; ++V)
          Sink += RT.vproc(V).queueDepth();
        Reads.fetch_add(1, std::memory_order_relaxed);
        if (!Passed) {
          Passed = true;
          ReadersPassed.fetch_add(1, std::memory_order_release);
        }
      }
      if (Sink == ~0ull)
        std::abort(); // keep the reads observable
    });
  }
  for (int Run = 0; Run < 3; ++Run) {
    static std::atomic<int> Remaining;
    Remaining = 400;
    RT.run(
        [](Runtime &, VProc &VP, void *) {
          static JoinCounter Join;
          for (int I = 0; I < 400; ++I) {
            Join.add();
            VP.spawn({[](Runtime &, VProc &, Task) {
                        Remaining.fetch_sub(1);
                        Join.sub();
                      },
                      &Join, Value::nil(), 0, 0});
          }
          VP.joinWait(Join);
        },
        nullptr);
    EXPECT_EQ(Remaining.load(), 0);
  }
  // The runs take ~2 ms: on a loaded host a reader may not have had a
  // CPU yet. Let each finish one full pass before stopping it, with a
  // bound so a stuck reader fails the check below instead of hanging.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ReadersPassed.load(std::memory_order_acquire) < Readers.size() &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::yield();
  Stop.store(true, std::memory_order_release);
  for (std::thread &R : Readers)
    R.join();
  EXPECT_GT(Reads.load(), 0u);
}

//===----------------------------------------------------------------------===//
// Stats plumbing
//===----------------------------------------------------------------------===//

TEST(Scheduler, ReportRendersSchedulerSection) {
  Runtime RT(testRuntimeConfig(4), Topology::uniform(2, 2));
  RT.run(
      [](Runtime &RT, VProc &VP, void *) {
        parallelFor(
            RT, VP, 0, 256, 4,
            [](Runtime &, VProc &, int64_t, int64_t, void *) {},
            nullptr);
      },
      nullptr);
  std::string Report =
      buildGCReport(RT.world(), RT.aggregateSchedStats()).human();
  EXPECT_NE(Report.find("scheduler:"), std::string::npos);
  EXPECT_NE(Report.find("node-local"), std::string::npos);
  EXPECT_NE(Report.find("parked"), std::string::npos);
}

TEST(Scheduler, StolenEnvBytesFlowIntoTrafficMatrix) {
  // Steals with heap environments must charge (victim node -> thief
  // node) in the traffic ledger.
  Runtime RT(testRuntimeConfig(4), Topology::uniform(4, 1));
  static JoinCounter Join;
  RT.run(
      [](Runtime &, VProc &VP, void *) {
        RootScope Scope(VP.heap());
        for (int I = 0; I < 100; ++I) {
          Ref<> Env = Scope.root(makeIntList(VP.heap(), 16));
          Join.add();
          VP.spawn({[](Runtime &, VProc &, Task T) {
                      EXPECT_EQ(listSum(T.Env), intListSum(16));
                      Join.sub();
                    },
                    nullptr, Env, 0, 0});
        }
        VP.joinWait(Join);
      },
      nullptr);
  SchedStats S = RT.aggregateSchedStats();
  if (S.StolenEnvBytes > 0) {
    // One vproc per node here, so stolen-env traffic is off-node.
    EXPECT_GT(RT.world().traffic().remoteBytes(), 0u);
  }
}
