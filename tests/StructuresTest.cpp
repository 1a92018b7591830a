//===- tests/StructuresTest.cpp - lock-free structure suite ---------------===//
//
// Part of the manticore-gc project.
//
// Correctness and linearizability smoke tests for the src/structures/
// ordered sets (GcList and GcSkipList). The multi-thread hammers
// are the collector's adversarial mutators: they run with concurrent
// marking (started deterministically mid-hammer) and, in a separate
// test, with tiny budgets so stop-the-world copying collections move
// nodes between operations. The linearizability smoke is the per-key
// net-count invariant: successful inserts and erases of one key must
// alternate, so each key's (inserts - erases) is 0 or 1 and equals its
// final membership.
//
//===----------------------------------------------------------------------===//

#include "GCTestUtils.h"
#include "gc/HeapVerifier.h"
#include "structures/GcStructures.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <random>
#include <set>
#include <thread>
#include <vector>

using namespace manti;
using namespace manti::structures;
using namespace manti::test;

namespace {

uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z ^= Z >> 30;
  Z *= 0xBF58476D1CE4E5B9ull;
  Z ^= Z >> 27;
  Z *= 0x94D049BB133111EBull;
  Z ^= Z >> 31;
  return Z;
}

/// Runs Body(heap, tid) on one thread per vproc, then keeps every
/// thread in a safe-point drain loop until all are done and no
/// collection is in flight (a rendezvous needs every vproc).
template <typename Body>
void runWorkers(GCWorld &W, Body Fn) {
  std::atomic<unsigned> Done{0};
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < W.numVProcs(); ++I) {
    Threads.emplace_back([&W, I, &Fn, &Done] {
      VProcHeap &H = W.heap(I);
      Fn(H, I);
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

/// Single-threaded set semantics shared by both sets.
template <typename Set> void checkBasics(Set &S, VProcHeap &H) {
  EXPECT_FALSE(S.contains(H, 7));
  EXPECT_TRUE(S.insert(H, 7));
  EXPECT_FALSE(S.insert(H, 7)) << "duplicate insert must fail";
  EXPECT_TRUE(S.contains(H, 7));
  EXPECT_TRUE(S.insert(H, 3));
  EXPECT_TRUE(S.insert(H, 11));
  EXPECT_FALSE(S.erase(H, 5)) << "absent erase must fail";
  EXPECT_TRUE(S.erase(H, 7));
  EXPECT_FALSE(S.contains(H, 7));
  EXPECT_FALSE(S.erase(H, 7)) << "double erase must fail";
  EXPECT_TRUE(S.insert(H, 7)) << "re-insert after erase";

  std::vector<int64_t> Keys = S.keys();
  EXPECT_EQ(Keys, (std::vector<int64_t>{3, 7, 11}));
}

/// Larger shuffled workload: insert 0..N-1 in random order, erase the
/// odd keys, check order and membership.
template <typename Set> void checkManyKeys(Set &S, VProcHeap &H, int N) {
  std::vector<int64_t> Order(N);
  for (int I = 0; I < N; ++I)
    Order[I] = I;
  std::mt19937_64 Rng(42);
  std::shuffle(Order.begin(), Order.end(), Rng);
  for (int64_t K : Order)
    ASSERT_TRUE(S.insert(H, K));
  for (int64_t K = 1; K < N; K += 2)
    ASSERT_TRUE(S.erase(H, K));
  std::vector<int64_t> Keys = S.keys();
  ASSERT_EQ(Keys.size(), static_cast<std::size_t>((N + 1) / 2));
  EXPECT_TRUE(std::is_sorted(Keys.begin(), Keys.end()));
  for (std::size_t I = 0; I < Keys.size(); ++I)
    EXPECT_EQ(Keys[I], static_cast<int64_t>(2 * I));
  for (int64_t K = 0; K < N; ++K)
    ASSERT_EQ(S.contains(H, K), K % 2 == 0) << "key " << K;
}

struct HammerOptions {
  unsigned KeySpace = 96;
  int OpsPerThread = 1500;
  /// Vproc 0 starts a concurrent mark at this op index (-1: never).
  int StartConcMarkAt = -1;
  /// Vproc 0 requests stop-the-world globals at every multiple of this
  /// op index (0: never).
  int RequestStwEvery = 0;
};

/// The linearizability smoke: mixed ops from every vproc, per-key net
/// counters, then a quiescent sweep comparing counters to membership.
template <typename Set>
void hammerSet(GCWorld &W, Set &S, const HammerOptions &Opt) {
  std::vector<std::atomic<int>> Net(Opt.KeySpace);
  runWorkers(W, [&](VProcHeap &H, unsigned Tid) {
    uint64_t Seed = 0x5EED + Tid * 0xABCDull;
    for (int Op = 0; Op < Opt.OpsPerThread; ++Op) {
      if (Tid == 0 && Op == Opt.StartConcMarkAt &&
          !W.collectionInProgress())
        W.startConcurrentMark();
      if (Tid == 0 && Opt.RequestStwEvery > 0 && Op > 0 &&
          Op % Opt.RequestStwEvery == 0 && !W.collectionInProgress())
        W.requestGlobalGC();
      uint64_t Z = splitmix64(Seed);
      int64_t Key = static_cast<int64_t>((Z >> 8) % Opt.KeySpace);
      switch (Z % 16) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
      case 5:
        if (S.insert(H, Key))
          Net[Key].fetch_add(1, std::memory_order_relaxed);
        break;
      case 6:
      case 7:
      case 8:
      case 9:
      case 10:
      case 11:
        if (S.erase(H, Key))
          Net[Key].fetch_sub(1, std::memory_order_relaxed);
        break;
      default:
        (void)S.contains(H, Key);
        break;
      }
    }
  });

  std::vector<int64_t> Keys = S.keys();
  EXPECT_TRUE(std::is_sorted(Keys.begin(), Keys.end()));
  EXPECT_EQ(std::adjacent_find(Keys.begin(), Keys.end()), Keys.end())
      << "set holds a duplicate key";
  std::set<int64_t> Present(Keys.begin(), Keys.end());
  for (unsigned K = 0; K < Opt.KeySpace; ++K) {
    int N = Net[K].load(std::memory_order_relaxed);
    ASSERT_GE(N, 0) << "key " << K << ": more erases than inserts succeeded";
    ASSERT_LE(N, 1) << "key " << K << ": two concurrent inserts succeeded";
    EXPECT_EQ(N == 1, Present.count(K) == 1) << "key " << K;
  }
}

GCConfig concurrentConfig() {
  GCConfig Cfg = smallConfig();
  Cfg.ConcurrentGlobal = true;
  return Cfg;
}

} // namespace

//===----------------------------------------------------------------------===//
// Single-threaded semantics
//===----------------------------------------------------------------------===//

TEST(Structures, GcListBasics) {
  TestWorld TW;
  GcReclaimer R(1);
  GcList S(TW.heap(), R);
  checkBasics(S, TW.heap());
  verifyHeap(TW.heap());
}

TEST(Structures, GcSkipListBasics) {
  TestWorld TW;
  GcReclaimer R(1);
  GcSkipList S(TW.heap(), R);
  checkBasics(S, TW.heap());
  verifyHeap(TW.heap());
}

TEST(Structures, GcSkipListManyKeysOrdered) {
  TestWorld TW;
  GcReclaimer R(1);
  GcSkipList S(TW.heap(), R);
  checkManyKeys(S, TW.heap(), 512);
  EXPECT_GT(R.stats().RetiredBytes, 0u);
  verifyWorld(TW.World);
}

//===----------------------------------------------------------------------===//
// Lifetime roots vs. RootScope nesting
//===----------------------------------------------------------------------===//

// A GcList roots its head slot for its whole lifetime, independent of
// any RootScope. Scopes that close around it, or open before it dies,
// must neither drop that root nor leave a dangling registration behind.

TEST(StructuresRooting, GcListOutlivesTheScopeItWasBuiltIn) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  GcReclaimer R(1);
  std::optional<GcList> S;
  {
    RootScope Scope(H);
    S.emplace(H, R);
  } // closes before the list does
  for (int64_t K = 0; K < 64; ++K)
    ASSERT_TRUE(S->insert(H, K));
  // A copying collection moves the head: only a registered root follows.
  TW.World.requestGlobalGC();
  H.safePoint();
  ASSERT_EQ(TW.World.globalGCCount(), 1u);
  for (int64_t K = 0; K < 64; ++K)
    EXPECT_TRUE(S->contains(H, K)) << "key " << K;
  EXPECT_FALSE(S->contains(H, 64));
  verifyHeap(H);
  S.reset();
}

TEST(StructuresRooting, GcListDestroyedWhileALaterScopeIsOpen) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  GcReclaimer R(1);
  RootScope Outer(H);
  Ref<> Keep = Outer.root(makeIntList(H, 16));
  std::optional<GcList> S(std::in_place, H, R);
  ASSERT_TRUE(S->insert(H, 5));
  {
    RootScope Later(H);
    Ref<> Tmp = Later.root(makeIntList(H, 4));
    S.reset();
    EXPECT_EQ(listSum(Tmp), intListSum(4));
  }
  // Every registered slot is visited here: a dangling one would crash.
  H.minorGC();
  TW.World.requestGlobalGC();
  H.safePoint();
  EXPECT_EQ(listSum(Keep), intListSum(16));
  verifyHeap(H);
}

//===----------------------------------------------------------------------===//
// Deterministic mutation under a stepped concurrent mark
//===----------------------------------------------------------------------===//

TEST(StructuresMidMark, GcSkipListMutatesDuringConcurrentMark) {
  GCConfig Cfg = smallConfig();
  Cfg.ConcurrentGlobal = true;
  TestWorld TW(1, Cfg);
  VProcHeap &H = TW.heap();
  GcReclaimer R(1);
  GcSkipList S(H, R);
  for (int64_t K = 0; K < 128; ++K)
    ASSERT_TRUE(S.insert(H, K));

  TW.World.startConcurrentMark();
  H.safePoint();
  ASSERT_EQ(TW.World.phase(), GCPhase::ConcMark);

  // Rewire the structure mid-snapshot: unlink half the nodes (the SATB
  // records from the unlink CASes must keep the snapshot sound) and
  // insert fresh post-snapshot nodes (retained via allocation stamps).
  for (int64_t K = 0; K < 128; K += 2)
    ASSERT_TRUE(S.erase(H, K));
  for (int64_t K = 200; K < 232; ++K)
    ASSERT_TRUE(S.insert(H, K));

  while (TW.World.collectionInProgress())
    H.safePoint();
  ASSERT_GE(TW.World.concurrentGCCount(), 1u);

  // Contents survived the cycle.
  for (int64_t K = 0; K < 128; ++K)
    ASSERT_EQ(S.contains(H, K), K % 2 == 1) << "key " << K;
  for (int64_t K = 200; K < 232; ++K)
    ASSERT_TRUE(S.contains(H, K));

  // A second, quiescent cycle sweeps the floating garbage the first
  // one retained; the structure must still be intact afterwards.
  TW.World.startConcurrentMark();
  while (TW.World.collectionInProgress())
    H.safePoint();
  EXPECT_EQ(S.keys().size(), 64u + 32u);
  verifyWorld(TW.World);
}

//===----------------------------------------------------------------------===//
// Concurrent hammers (linearizability smoke)
//===----------------------------------------------------------------------===//

TEST(StructuresHammer, GcListUnderConcurrentMark) {
  TestWorld TW(4, concurrentConfig(), Topology::uniform(2, 2));
  GcReclaimer R(4);
  {
    GcList S(TW.heap(0), R);
    HammerOptions Opt;
    Opt.StartConcMarkAt = Opt.OpsPerThread / 3;
    hammerSet(TW.World, S, Opt);
    EXPECT_GE(TW.World.concurrentGCCount(), 1u);
    EXPECT_GT(R.stats().RetiredObjects, 0u);
  }
  verifyWorld(TW.World);
}

TEST(StructuresHammer, GcSkipListUnderConcurrentMark) {
  TestWorld TW(4, concurrentConfig(), Topology::uniform(2, 2));
  GcReclaimer R(4);
  {
    GcSkipList S(TW.heap(0), R);
    HammerOptions Opt;
    Opt.StartConcMarkAt = Opt.OpsPerThread / 3;
    hammerSet(TW.World, S, Opt);
    EXPECT_GE(TW.World.concurrentGCCount(), 1u);
  }
  verifyWorld(TW.World);
}

TEST(StructuresHammer, GcSkipListUnderStopTheWorldCopying) {
  // Repeated STW copying collections mid-hammer: every global *moves*
  // every node, exercising the rooted-slot CAS discipline.
  TestWorld TW(4, smallConfig(), Topology::uniform(2, 2));
  GcReclaimer R(4);
  {
    GcSkipList S(TW.heap(0), R);
    HammerOptions Opt;
    Opt.RequestStwEvery = Opt.OpsPerThread / 5;
    hammerSet(TW.World, S, Opt);
    EXPECT_GE(TW.World.globalGCCount(), 3u)
        << "the hammer should have run through repeated copying GCs";
  }
  verifyWorld(TW.World);
}
