//===- tests/GlobalGCTest.cpp - parallel global collection (Section 3.4) --===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "GCTestUtils.h"
#include "gc/HeapVerifier.h"
#include "gc/Proxy.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

using namespace manti;
using namespace manti::test;

TEST(GlobalGC, SingleVProcCollectsGarbage) {
  // Counts collections and compares active bytes across one of them:
  // stress-forced global collections would run before and around it.
  ScopedUnsetEnv NoPeriod("MANTI_STRESS_GC_PERIOD");
  TestWorld TW(1, phaseExactConfig());
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Keep = Frame.slot(makeIntList(H, 50));
  Keep = H.promote(Keep);
  // Create global garbage: promote and drop.
  for (int I = 0; I < 40; ++I) {
    RootScope Inner(H);
    Value &Junk = Inner.slot(makeIntList(H, 100));
    H.promote(Junk);
  }
  uint64_t ActiveBefore = TW.World.chunks().activeBytes();
  TW.World.requestGlobalGC();
  EXPECT_TRUE(H.gcSignalled());
  H.safePoint(); // barrier of one: runs the whole collection
  EXPECT_EQ(TW.World.globalGCCount(), 1u);
  EXPECT_FALSE(TW.World.globalGCPending());
  EXPECT_LT(TW.World.chunks().activeBytes(), ActiveBefore)
      << "garbage chunks must return to the free pool";
  EXPECT_EQ(listSum(Keep), intListSum(50));
  verifyHeap(H);
}

TEST(GlobalGC, SignalZeroesEveryLimit) {
  TestWorld TW(3);
  TW.World.requestGlobalGC();
  for (unsigned I = 0; I < 3; ++I)
    EXPECT_TRUE(TW.heap(I).gcSignalled());
}

TEST(GlobalGC, TriggeredAutomaticallyByThreshold) {
  GCConfig Cfg = smallConfig();
  Cfg.GlobalGCBytesPerVProc = 256 * 1024; // tiny budget: 4 chunks
  TestWorld TW(1, Cfg);
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Keep = Frame.slot(makeIntList(H, 20));
  for (int I = 0; I < 200 && TW.World.globalGCCount() == 0; ++I) {
    {
      RootScope Inner(H);
      Value &Junk = Inner.slot(makeIntList(H, 200));
      H.promote(Junk);
    }
    H.safePoint();
  }
  EXPECT_GE(TW.World.globalGCCount(), 1u)
      << "promotion volume must eventually trip the trigger";
  EXPECT_EQ(listSum(Keep), intListSum(20));
}

TEST(GlobalGC, YoungDataSurvivesInLocalHeap) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &LocalList = Frame.slot(makeIntList(H, 25));
  TW.World.requestGlobalGC();
  H.safePoint();
  EXPECT_TRUE(isLocalTo(H, LocalList))
      << "data copied by the collection-entry minor GC stays local";
  EXPECT_EQ(listSum(LocalList), intListSum(25));
}

TEST(GlobalGC, CompactsLiveDataIntoFewerChunks) {
  // Needs the live data spread thinly before the collection: a stress-
  // forced global collection during setup would compact it early.
  ScopedUnsetEnv NoPeriod("MANTI_STRESS_GC_PERIOD");
  GCConfig Cfg = phaseExactConfig();
  TestWorld TW(1, Cfg);
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  // Interleave live and dead promotions so live data is spread thinly
  // over many from-space chunks.
  std::vector<Value *> Kept;
  for (int I = 0; I < 10; ++I)
    Kept.push_back(&Frame.slot(Value::nil()));
  for (int Round = 0; Round < 10; ++Round) {
    *Kept[Round] = H.promote(makeIntList(H, 30));
    RootScope Inner(H);
    Value &Junk = Inner.slot(makeIntList(H, 600));
    H.promote(Junk);
  }
  unsigned ChunksBefore =
      static_cast<unsigned>(TW.World.chunks().activeBytes() /
                            Cfg.ChunkBytes);
  TW.World.requestGlobalGC();
  H.safePoint();
  unsigned ChunksAfter =
      static_cast<unsigned>(TW.World.chunks().activeBytes() / Cfg.ChunkBytes);
  EXPECT_LT(ChunksAfter, ChunksBefore) << "copying collection compacts";
  for (Value *Slot : Kept)
    EXPECT_EQ(listSum(*Slot), intListSum(30));
}

TEST(GlobalGC, ProxiesMoveAndTablesFollow) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Payload = Frame.slot(makeIntList(H, 8));
  Value &P = Frame.slot(createProxy(H, Payload));
  Word *ProxyBefore = P.asPtr();
  TW.World.requestGlobalGC();
  H.safePoint();
  EXPECT_NE(P.asPtr(), ProxyBefore) << "proxy object was copied";
  EXPECT_EQ(H.ProxyTable.size(), 1u);
  EXPECT_EQ(H.ProxyTable[0], P.asPtr()) << "table tracks the moved proxy";
  EXPECT_FALSE(proxyResolved(P));
  EXPECT_EQ(listSum(proxyPayload(P)), intListSum(8));
  // Resolution still works after the move.
  Value G = resolveProxy(H, P);
  EXPECT_EQ(listSum(G), intListSum(8));
  verifyHeap(H);
}

TEST(GlobalGC, AdaptiveThresholdGrowsWithLiveData) {
  GCConfig Cfg = smallConfig();
  Cfg.GlobalGCBytesPerVProc = 128 * 1024;
  TestWorld TW(1, Cfg);
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  // Keep a lot of live global data.
  std::vector<Value *> Kept;
  for (int I = 0; I < 12; ++I) {
    Value &Slot = Frame.slot(Value::nil());
    Slot = H.promote(makeIntList(H, 800));
    Kept.push_back(&Slot);
  }
  TW.World.requestGlobalGC();
  H.safePoint();
  EXPECT_GT(TW.World.globalGCThresholdBytes(),
            static_cast<uint64_t>(Cfg.GlobalGCBytesPerVProc))
      << "threshold adapts when live data exceeds the base budget";
  for (Value *Slot : Kept)
    EXPECT_EQ(listSum(*Slot), intListSum(800));
}

//===----------------------------------------------------------------------===//
// Multi-vproc (threaded) collections
//===----------------------------------------------------------------------===//

namespace {

/// Runs Body on each vproc's own thread. A global collection needs every
/// vproc at its barriers, so after Body returns each thread stays in a
/// safe-point drain loop until all threads are done AND no collection is
/// pending -- only then can no new collection arise.
void runOnVProcs(GCWorld &W, void (*Body)(VProcHeap &)) {
  std::atomic<unsigned> Done{0};
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < W.numVProcs(); ++I) {
    Threads.emplace_back([&W, I, Body, &Done] {
      VProcHeap &H = W.heap(I);
      Body(H);
      Done.fetch_add(1, std::memory_order_acq_rel);
      while (Done.load(std::memory_order_acquire) < W.numVProcs() ||
             W.collectionInProgress()) {
        H.safePoint();
        std::this_thread::yield();
      }
    });
  }
  for (auto &T : Threads)
    T.join();
}

} // namespace

namespace {
/// Durable per-vproc root cells that outlive the worker threads, so the
/// post-join world verification still reaches the promoted survivors.
std::vector<Value *> DurableKeeps;

/// Opens one RootScope per vproc heap on the test thread, before the
/// workers start, and points DurableKeeps at a nil slot in each. The
/// scopes close in reverse order once the workers have joined.
class DurableRoots {
public:
  explicit DurableRoots(GCWorld &W) {
    DurableKeeps.clear();
    for (unsigned I = 0; I < W.numVProcs(); ++I) {
      Scopes.push_back(std::make_unique<RootScope>(W.heap(I)));
      DurableKeeps.push_back(&Scopes.back()->slot(Value::nil()));
    }
  }
  ~DurableRoots() {
    DurableKeeps.clear();
    while (!Scopes.empty())
      Scopes.pop_back();
  }

private:
  std::vector<std::unique_ptr<RootScope>> Scopes;
};
} // namespace

TEST(GlobalGCParallel, FourVProcsCollectTogether) {
  GCConfig Cfg = smallConfig();
  Cfg.GlobalGCBytesPerVProc = 256 * 1024;
  TestWorld TW(4, Cfg, Topology::uniform(2, 2));
  DurableRoots Durable(TW.World);

  runOnVProcs(TW.World, [](VProcHeap &H) {
    RootScope Frame(H);
    Value &Keep = Frame.slot(makeIntList(H, 40));
    Keep = H.promote(Keep);
    *DurableKeeps[H.id()] = Keep;
    for (int I = 0; I < 120; ++I) {
      {
        RootScope Inner(H);
        Value &Junk = Inner.slot(makeIntList(H, 120));
        H.promote(Junk);
      }
      H.safePoint();
    }
    EXPECT_EQ(listSum(Keep), intListSum(40));
  });

  EXPECT_GE(TW.World.globalGCCount(), 1u);
  VerifyResult R = verifyWorld(TW.World);
  EXPECT_GT(R.GlobalObjects, 0u);
  for (unsigned I = 0; I < 4; ++I)
    EXPECT_EQ(listSum(*DurableKeeps[I]), intListSum(40));
}

TEST(GlobalGCParallel, MixedLocalAndGlobalLiveData) {
  GCConfig Cfg = smallConfig();
  Cfg.GlobalGCBytesPerVProc = 192 * 1024;
  TestWorld TW(3, Cfg, Topology::uniform(3, 1));

  runOnVProcs(TW.World, [](VProcHeap &H) {
    RootScope Frame(H);
    Value &LocalKeep = Frame.slot(makeIntList(H, 15));
    Value &GlobalKeep = Frame.slot(makeIntList(H, 15));
    GlobalKeep = H.promote(GlobalKeep);
    for (int I = 0; I < 200; ++I) {
      allocGarbage(H, 40);
      if (I % 3 == 0) {
        RootScope Inner(H);
        Value &Junk = Inner.slot(makeIntList(H, 80));
        H.promote(Junk);
      }
      H.safePoint();
      ASSERT_EQ(listSum(LocalKeep), intListSum(15));
      ASSERT_EQ(listSum(GlobalKeep), intListSum(15));
    }
  });

  verifyWorld(TW.World);
}

namespace {
constexpr uint64_t ForcedCollections = 5;
} // namespace

TEST(GlobalGCParallel, EveryVProcRecordsItsTimeToSafepoint) {
  TestWorld TW(4, smallConfig(), Topology::uniform(2, 2));

  // vproc 0 forces the collections one after another; the others sit in
  // runOnVProcs' safe-point loop and join each one.
  runOnVProcs(TW.World, [](VProcHeap &H) {
    if (H.id() != 0)
      return;
    GCWorld &W = H.world();
    for (uint64_t I = 1; I <= ForcedCollections; ++I) {
      W.requestGlobalGC();
      while (W.globalGCCount() < I) {
        H.safePoint();
        std::this_thread::yield();
      }
    }
  });

  ASSERT_EQ(TW.World.globalGCCount(), ForcedCollections);
  for (unsigned I = 0; I < 4; ++I)
    EXPECT_EQ(TW.heap(I).Stats.GlobalSafepointWait.count(), ForcedCollections)
        << "vproc " << I;
  GCStats Total = TW.World.aggregateStats();
  EXPECT_EQ(Total.GlobalSafepointWait.count(), 4 * ForcedCollections);
  verifyWorld(TW.World);
}

//===----------------------------------------------------------------------===//
// Mostly-concurrent marking (GCConfig::ConcurrentGlobal)
//===----------------------------------------------------------------------===//

namespace {

/// Steps a single-vproc world through the rest of a concurrent cycle:
/// with a barrier of one, each safe point runs an entire rendezvous, and
/// the ConcMark assists drain the gray stack.
void stepCycleToCompletion(GCWorld &W, VProcHeap &H) {
  while (W.collectionInProgress())
    H.safePoint();
}

} // namespace

TEST(ConcurrentGlobalGC, PhaseMachineSteps) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Keep = Frame.slot(makeIntList(H, 20));
  Keep = H.promote(Keep);

  ASSERT_TRUE(TW.World.startConcurrentMark());
  EXPECT_FALSE(TW.World.startConcurrentMark()) << "no re-entry mid-cycle";
  EXPECT_EQ(TW.World.phase(), GCPhase::ConcInit);
  EXPECT_TRUE(H.gcSignalled());

  H.safePoint(); // barrier of one: runs the whole initial rendezvous
  EXPECT_EQ(TW.World.phase(), GCPhase::ConcMark);
  EXPECT_TRUE(TW.World.satbActive());

  stepCycleToCompletion(TW.World, H);
  EXPECT_EQ(TW.World.phase(), GCPhase::Idle);
  EXPECT_FALSE(TW.World.satbActive());
  EXPECT_EQ(TW.World.globalGCCount(), 1u);
  EXPECT_EQ(TW.World.concurrentGCCount(), 1u);
  EXPECT_EQ(listSum(Keep), intListSum(20));
  verifyHeap(H);
}

TEST(ConcurrentGlobalGC, SingleVProcCollectsGarbage) {
  // Compares active bytes across one cycle: stress-forced stop-the-world
  // collections would reclaim the junk first.
  ScopedUnsetEnv NoPeriod("MANTI_STRESS_GC_PERIOD");
  TestWorld TW(1, phaseExactConfig());
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Keep = Frame.slot(makeIntList(H, 50));
  Keep = H.promote(Keep);
  // Whole-chunk garbage: the non-moving sweep reclaims chunks with no
  // marked objects, so the junk must span several chunks by itself.
  for (int I = 0; I < 40; ++I) {
    RootScope Inner(H);
    Value &Junk = Inner.slot(makeIntList(H, 200));
    H.promote(Junk);
  }
  uint64_t ActiveBefore = TW.World.chunks().activeBytes();
  ASSERT_TRUE(TW.World.startConcurrentMark());
  stepCycleToCompletion(TW.World, H);
  EXPECT_EQ(TW.World.concurrentGCCount(), 1u);
  EXPECT_LT(TW.World.chunks().activeBytes(), ActiveBefore)
      << "all-garbage chunks must return to the free pool";
  EXPECT_EQ(listSum(Keep), intListSum(50));
  verifyHeap(H);
}

TEST(ConcurrentGlobalGC, MutationMidMarkKeepsSnapshotSafe) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope S(H); // arms the handle-layer deletion barrier for this heap
  // Enough dropped data to span whole chunks, so the *second* cycle can
  // be seen reclaiming the floating garbage.
  std::vector<Ref<>> Dropped;
  for (int I = 0; I < 10; ++I)
    Dropped.push_back(S.root(H.promote(makeIntList(H, 600))));
  Ref<> Keep = S.root(H.promote(makeIntList(H, 40)));

  ASSERT_TRUE(TW.World.startConcurrentMark());
  H.safePoint(); // initial rendezvous: snapshot taken
  ASSERT_EQ(TW.World.phase(), GCPhase::ConcMark);

  // Mutate mid-mark. Overwrites and deletes of root slots drop the only
  // references to snapshotted data: the Yuasa barrier must record the
  // old values, or the tracer could miss them and sweep live chunks.
  for (std::size_t I = 0; I < Dropped.size(); ++I)
    Dropped[I] = (I % 2 == 0) ? Value::nil() // delete
                              : H.promote(makeIntList(H, 3)); // overwrite
  // Data allocated during the mark is retained by allocation epoch.
  Ref<> Fresh = S.root(H.promote(makeIntList(H, 12)));

  stepCycleToCompletion(TW.World, H);
  EXPECT_EQ(TW.World.concurrentGCCount(), 1u);
  EXPECT_EQ(listSum(Keep.value()), intListSum(40));
  EXPECT_EQ(listSum(Fresh.value()), intListSum(12));
  verifyHeap(H);

  // The dropped lists survived cycle 1 as floating garbage (the barrier
  // marked them). Nothing references them now: cycle 2 frees their
  // chunks.
  uint64_t ActiveAfterFirst = TW.World.chunks().activeBytes();
  ASSERT_TRUE(TW.World.startConcurrentMark());
  stepCycleToCompletion(TW.World, H);
  EXPECT_EQ(TW.World.concurrentGCCount(), 2u);
  EXPECT_LT(TW.World.chunks().activeBytes(), ActiveAfterFirst)
      << "floating garbage must be reclaimed by the next cycle";
  EXPECT_EQ(listSum(Keep.value()), intListSum(40));
  verifyHeap(H);
}

TEST(ConcurrentGlobalGC, VecRefOverwriteMidMarkKeepsSnapshotSafe) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope S(H);
  // The vector twin of MutationMidMarkKeepsSnapshotSafe: VecRef has its
  // own assignment operators with their own satbRecordOverwrite calls,
  // so the barrier coverage must be demonstrated separately.
  std::vector<VecRef<>> Dropped;
  for (int I = 0; I < 10; ++I)
    Dropped.push_back(S.rootVector(H.promote(makeIntList(H, 600))));
  VecRef<> Keep = S.rootVector(H.promote(makeIntList(H, 40)));

  ASSERT_TRUE(TW.World.startConcurrentMark());
  H.safePoint(); // initial rendezvous: snapshot taken
  ASSERT_EQ(TW.World.phase(), GCPhase::ConcMark);

  // Re-target the vector handles mid-mark. Each overwrite drops the
  // only reference to a snapshotted list; VecRef::operator= must feed
  // the old head to the deletion barrier exactly as Ref's does.
  for (std::size_t I = 0; I < Dropped.size(); ++I)
    Dropped[I] = (I % 2 == 0) ? Value::nil() // delete
                              : H.promote(makeIntList(H, 3)); // overwrite
  stepCycleToCompletion(TW.World, H);
  EXPECT_EQ(TW.World.concurrentGCCount(), 1u);
  EXPECT_EQ(listSum(Keep.value()), intListSum(40));
  // Typed element access through the handle still works post-cycle.
  EXPECT_EQ(Keep.size(), 2u);
  EXPECT_EQ(listSum(Keep.at(1)), intListSum(39));
  verifyHeap(H);

  // Cycle 2 reclaims what cycle 1 retained as floating garbage.
  uint64_t ActiveAfterFirst = TW.World.chunks().activeBytes();
  ASSERT_TRUE(TW.World.startConcurrentMark());
  stepCycleToCompletion(TW.World, H);
  EXPECT_EQ(TW.World.concurrentGCCount(), 2u);
  EXPECT_LT(TW.World.chunks().activeBytes(), ActiveAfterFirst)
      << "floating garbage must be reclaimed by the next cycle";
  EXPECT_EQ(listSum(Keep.value()), intListSum(40));
  verifyHeap(H);
}

TEST(ConcurrentGlobalGC, ProxyResolutionMidMark) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Payload = Frame.slot(makeIntList(H, 8));
  Value &P = Frame.slot(createProxy(H, Payload));

  ASSERT_TRUE(TW.World.startConcurrentMark());
  H.safePoint();
  ASSERT_EQ(TW.World.phase(), GCPhase::ConcMark);

  // The one true heap mutation in the system: resolution publishes the
  // promoted payload into the proxy while the marker may be scanning it.
  Value G = resolveProxy(H, P);
  stepCycleToCompletion(TW.World, H);

  EXPECT_TRUE(proxyResolved(P));
  EXPECT_EQ(listSum(proxyPayload(P)), intListSum(8));
  EXPECT_EQ(listSum(G), intListSum(8));
  verifyHeap(H);
}

TEST(ConcurrentGlobalGC, StwRequestDoesNotPreemptRunningCycle) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Keep = Frame.slot(makeIntList(H, 20));
  Keep = H.promote(Keep);

  ASSERT_TRUE(TW.World.startConcurrentMark());
  H.safePoint();
  ASSERT_EQ(TW.World.phase(), GCPhase::ConcMark);
  TW.World.requestGlobalGC(); // must be a no-op mid-cycle
  EXPECT_FALSE(TW.World.globalGCPending());
  EXPECT_EQ(TW.World.phase(), GCPhase::ConcMark);

  stepCycleToCompletion(TW.World, H);
  EXPECT_EQ(TW.World.globalGCCount(), 1u);
  EXPECT_EQ(TW.World.concurrentGCCount(), 1u);
  EXPECT_EQ(listSum(Keep), intListSum(20));
}

TEST(ConcurrentGlobalGC, WatermarkTriggersAutomatically) {
  // The watermark must start the cycle: stress-forced stop-the-world
  // collections would reset the allocation volume it counts.
  ScopedUnsetEnv NoPeriod("MANTI_STRESS_GC_PERIOD");
  GCConfig Cfg = phaseExactConfig();
  Cfg.GlobalGCBytesPerVProc = 256 * 1024; // tiny budget: 4 chunks
  Cfg.ConcurrentGlobal = true;
  TestWorld TW(1, Cfg);
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Keep = Frame.slot(makeIntList(H, 20));
  Keep = H.promote(Keep);
  for (int I = 0; I < 400 && TW.World.concurrentGCCount() == 0; ++I) {
    {
      RootScope Inner(H);
      Value &Junk = Inner.slot(makeIntList(H, 200));
      H.promote(Junk);
    }
    H.safePoint();
  }
  EXPECT_GE(TW.World.concurrentGCCount(), 1u)
      << "allocation volume must trip the concurrent-mark watermark";
  EXPECT_EQ(listSum(Keep), intListSum(20));
  verifyHeap(H);
}

TEST(ConcurrentGlobalGC, WatermarkTriggersOnMajorPromotion) {
  // Global data that arrives only through major collections -- no
  // promote() call, no direct global allocation -- must still start a
  // concurrent cycle at the watermark, not fall through to the
  // stop-the-world backstop at the hard threshold. Stress-forced stop-
  // the-world collections would reset the volume the watermark counts.
  ScopedUnsetEnv NoPeriod("MANTI_STRESS_GC_PERIOD");
  GCConfig Cfg = phaseExactConfig();
  Cfg.GlobalGCBytesPerVProc = 256 * 1024; // tiny budget: 4 chunks
  Cfg.ConcurrentGlobal = true;
  TestWorld TW(1, Cfg);
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Keep = Frame.slot(Value::nil());
  int64_t Cells = 0;
  for (int I = 0; I < 400 && TW.World.concurrentGCCount() == 0; ++I) {
    // Live local data grows until major collections copy it out.
    for (int J = 0; J < 50; ++J, ++Cells)
      Keep = cons(H, Value::fromInt(Cells), Keep);
    H.safePoint();
  }
  EXPECT_GT(H.Stats.MajorBytesPromoted, 0u);
  EXPECT_EQ(H.Stats.PromoteCalls, 0u) << "no direct promotion";
  EXPECT_GE(TW.World.concurrentGCCount(), 1u)
      << "major-GC promotion must trip the concurrent-mark watermark";
  EXPECT_EQ(listSum(Keep), Cells * (Cells - 1) / 2);
  verifyHeap(H);
}

TEST(ConcurrentGlobalGCParallel, MutationUnderConcurrentMark) {
  GCConfig Cfg = smallConfig();
  Cfg.GlobalGCBytesPerVProc = 256 * 1024;
  Cfg.ConcurrentGlobal = true;
  TestWorld TW(4, Cfg, Topology::uniform(2, 2));
  DurableRoots Durable(TW.World);

  runOnVProcs(TW.World, [](VProcHeap &H) {
    RootScope S(H);
    Ref<> Keep = S.root(H.promote(makeIntList(H, 40)));
    *DurableKeeps[H.id()] = Keep.value();
    // Churn a root slot while cycles run underneath: every assignment
    // is an overwrite (deletion barrier) and every nil store a delete.
    Ref<> Churn = S.root(Value::nil());
    for (int I = 0; I < 150; ++I) {
      Churn = H.promote(makeIntList(H, 60));
      if (I % 7 == 0)
        Churn = Value::nil();
      H.safePoint();
      ASSERT_EQ(listSum(Keep.value()), intListSum(40));
    }
    *DurableKeeps[H.id()] = Keep.value();
  });

  EXPECT_GE(TW.World.concurrentGCCount(), 1u)
      << "the churn volume must start at least one concurrent cycle";
  VerifyResult R = verifyWorld(TW.World);
  EXPECT_GT(R.GlobalObjects, 0u);
  for (unsigned I = 0; I < 4; ++I)
    EXPECT_EQ(listSum(*DurableKeeps[I]), intListSum(40));
}

TEST(GlobalGCParallel, StatsAggregateAcrossVProcs) {
  GCConfig Cfg = smallConfig();
  Cfg.GlobalGCBytesPerVProc = 128 * 1024;
  TestWorld TW(2, Cfg);

  runOnVProcs(TW.World, [](VProcHeap &H) {
    for (int I = 0; I < 150; ++I) {
      RootScope Inner(H);
      Value &Junk = Inner.slot(makeIntList(H, 100));
      H.promote(Junk);
      H.safePoint();
    }
  });

  GCStats Total = TW.World.aggregateStats();
  EXPECT_GT(Total.PromoteCalls, 0u);
  EXPECT_GE(TW.World.globalGCCount(), 1u);
  EXPECT_GT(Total.GlobalPause.count(), 0u);
}
