//===- tests/GCStressTest.cpp - randomized property testing ---------------===//
//
// Part of the manticore-gc project.
//
// Property-based stress testing of the full collector stack against a
// shadow model: random sequences of allocation, sharing, promotion,
// proxy, and collection operations, with the expected contents of every
// rooted structure tracked in plain C++ and re-verified throughout. The
// suite is parameterized over heap geometries and allocation policies so
// each instantiation exercises different trigger paths (nursery
// exhaustion, major thresholds, emergency evacuation, global GC).
//
//===----------------------------------------------------------------------===//

#include "GCTestUtils.h"
#include "gc/HeapVerifier.h"
#include "gc/Proxy.h"
#include "support/XorShift.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <tuple>
#include <vector>

using namespace manti;
using namespace manti::test;

namespace {

/// Expected contents of one rooted structure.
struct Shadow {
  enum KindT { IntList, RawBytes } Kind = IntList;
  std::vector<int64_t> Ints;      // for IntList (head-first order)
  std::vector<uint8_t> Bytes;     // for RawBytes
};

/// One mutator's stress state: a fixed bank of slots rooted in the
/// mutator's own RootScope, plus the shadow expectations for each.
class StressMutator {
public:
  static constexpr unsigned MaxRoots = 24;

  StressMutator(VProcHeap &H, uint64_t Seed) : H(H), Rng(Seed), Scope(H) {
    for (Value *&Slot : Roots)
      Slot = &Scope.slot(Value::nil());
    Shadows.resize(MaxRoots);
    Live.assign(MaxRoots, false);
  }

  /// Runs one random operation.
  void step() {
    switch (Rng.nextBelow(12)) {
    case 0:
    case 1:
      makeList();
      break;
    case 2:
      makeRaw();
      break;
    case 3:
      shareTail();
      break;
    case 4:
      dropRoot();
      break;
    case 5:
      promoteRoot();
      break;
    case 6:
      H.minorGC();
      break;
    case 7:
      H.majorGC();
      break;
    case 8:
      allocGarbage(H, 1 + Rng.nextBelow(40));
      break;
    case 9:
      proxyRoundTrip();
      break;
    case 10:
      H.safePoint();
      break;
    case 11:
      verifyAll();
      break;
    }
  }

  void verifyAll() {
    for (unsigned I = 0; I < MaxRoots; ++I) {
      if (!Live[I])
        continue;
      const Shadow &S = Shadows[I];
      Value V = *Roots[I];
      if (S.Kind == Shadow::IntList) {
        std::size_t Pos = 0;
        for (Value Cur = V; !Cur.isNil(); Cur = vectorGet(Cur, 1)) {
          ASSERT_LT(Pos, S.Ints.size()) << "list longer than shadow";
          ASSERT_EQ(vectorGet(Cur, 0).asInt(), S.Ints[Pos]) << "slot " << I;
          ++Pos;
        }
        ASSERT_EQ(Pos, S.Ints.size()) << "list shorter than shadow";
      } else {
        ASSERT_GE(rawSizeBytes(V), S.Bytes.size());
        ASSERT_EQ(std::memcmp(rawData(V), S.Bytes.data(), S.Bytes.size()),
                  0)
            << "raw contents diverged in slot " << I;
      }
    }
  }

private:
  unsigned randomSlot() { return static_cast<unsigned>(Rng.nextBelow(MaxRoots)); }

  int randomLiveSlot() {
    for (int Tries = 0; Tries < 8; ++Tries) {
      unsigned I = randomSlot();
      if (Live[I])
        return static_cast<int>(I);
    }
    return -1;
  }

  void makeList() {
    unsigned Slot = randomSlot();
    int64_t Len = 1 + static_cast<int64_t>(Rng.nextBelow(48));
    Shadow S;
    S.Kind = Shadow::IntList;
    RootScope Frame(H);
    Value &L = Frame.slot(Value::nil());
    for (int64_t I = 0; I < Len; ++I) {
      int64_t X = static_cast<int64_t>(Rng.next() >> 16);
      L = cons(H, Value::fromInt(X), L);
      S.Ints.insert(S.Ints.begin(), X);
    }
    *Roots[Slot] = L;
    Shadows[Slot] = std::move(S);
    Live[Slot] = true;
  }

  void makeRaw() {
    unsigned Slot = randomSlot();
    std::size_t Len = 8 + Rng.nextBelow(240);
    Shadow S;
    S.Kind = Shadow::RawBytes;
    S.Bytes.resize(Len);
    for (auto &B : S.Bytes)
      B = static_cast<uint8_t>(Rng.next());
    *Roots[Slot] = H.allocRaw(S.Bytes.data(), Len);
    Shadows[Slot] = std::move(S);
    Live[Slot] = true;
  }

  /// New list cell sharing an existing list as its tail.
  void shareTail() {
    int Tail = randomLiveSlot();
    if (Tail < 0 || Shadows[Tail].Kind != Shadow::IntList)
      return;
    unsigned Slot = randomSlot();
    if (static_cast<int>(Slot) == Tail)
      return;
    int64_t X = static_cast<int64_t>(Rng.next() >> 16);
    Shadow S;
    S.Kind = Shadow::IntList;
    S.Ints = Shadows[Tail].Ints;
    S.Ints.insert(S.Ints.begin(), X);
    *Roots[Slot] = cons(H, Value::fromInt(X), *Roots[Tail]);
    Shadows[Slot] = std::move(S);
    Live[Slot] = true;
  }

  void dropRoot() {
    unsigned Slot = randomSlot();
    *Roots[Slot] = Value::nil();
    Shadows[Slot] = Shadow();
    Shadows[Slot].Ints.clear();
    Live[Slot] = false;
  }

  void promoteRoot() {
    int Slot = randomLiveSlot();
    if (Slot < 0)
      return;
    *Roots[Slot] = H.promote(*Roots[Slot]);
  }

  /// Create a proxy over a live root, collect a little, resolve it, and
  /// check the payload survived.
  void proxyRoundTrip() {
    int Slot = randomLiveSlot();
    if (Slot < 0 || Shadows[Slot].Kind != Shadow::IntList)
      return;
    RootScope Frame(H);
    Value &P = Frame.slot(createProxy(H, *Roots[Slot]));
    if (Rng.nextBelow(2) == 0)
      H.minorGC();
    Value Resolved = resolveProxy(H, P);
    std::size_t Pos = 0;
    for (Value Cur = Resolved; !Cur.isNil(); Cur = vectorGet(Cur, 1)) {
      ASSERT_EQ(vectorGet(Cur, 0).asInt(), Shadows[Slot].Ints[Pos]);
      ++Pos;
    }
    ASSERT_EQ(Pos, Shadows[Slot].Ints.size());
  }

  VProcHeap &H;
  XorShift64 Rng;
  RootScope Scope;
  Value *Roots[MaxRoots];
  std::vector<Shadow> Shadows;
  std::vector<bool> Live;
};

} // namespace

//===----------------------------------------------------------------------===//
// Single-vproc stress across heap geometries
//===----------------------------------------------------------------------===//

/// (LocalHeapBytes, ChunkBytes, GlobalGCBytesPerVProc)
using GeometryParam = std::tuple<std::size_t, std::size_t, std::size_t>;

class GCStressGeometry : public ::testing::TestWithParam<GeometryParam> {};

TEST_P(GCStressGeometry, RandomOpsPreserveContents) {
  auto [HeapBytes, ChunkBytes, Budget] = GetParam();
  GCConfig Cfg;
  Cfg.LocalHeapBytes = HeapBytes;
  Cfg.MinNurseryBytes = HeapBytes / 8;
  Cfg.ChunkBytes = ChunkBytes;
  Cfg.GlobalGCBytesPerVProc = Budget;
  TestWorld TW(1, Cfg);
  VProcHeap &H = TW.heap();

  StressMutator M(H, 0xC0FFEE ^ HeapBytes ^ ChunkBytes ^ Budget);
  for (int Op = 0; Op < 2500; ++Op) {
    M.step();
    if (Op % 500 == 499) {
      M.verifyAll();
      verifyHeap(H);
    }
  }
  M.verifyAll();
  VerifyResult R = verifyHeap(H);
  EXPECT_GE(R.Edges, 0u);
  // The tiny budgets must actually have driven collections.
  EXPECT_GT(H.Stats.MinorPause.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GCStressGeometry,
    ::testing::Combine(
        ::testing::Values<std::size_t>(64 * 1024, 128 * 1024, 512 * 1024),
        ::testing::Values<std::size_t>(16 * 1024, 64 * 1024, 256 * 1024),
        ::testing::Values<std::size_t>(128 * 1024, 4 * 1024 * 1024)),
    [](const ::testing::TestParamInfo<GeometryParam> &Info) {
      return "heap" + std::to_string(std::get<0>(Info.param) / 1024) +
             "k_chunk" + std::to_string(std::get<1>(Info.param) / 1024) +
             "k_budget" + std::to_string(std::get<2>(Info.param) / 1024) +
             "k";
    });

//===----------------------------------------------------------------------===//
// Multi-vproc threaded stress across policies
//===----------------------------------------------------------------------===//

/// (NumVProcs, PolicyKind)
using ThreadedParam = std::tuple<unsigned, AllocPolicyKind>;

class GCStressThreaded : public ::testing::TestWithParam<ThreadedParam> {};

TEST_P(GCStressThreaded, ConcurrentMutatorsPreserveContents) {
  auto [NumVProcs, Policy] = GetParam();
  GCConfig Cfg = smallConfig();
  Cfg.GlobalGCBytesPerVProc = 256 * 1024; // frequent global collections
  Cfg.Policy = Policy;
  TestWorld TW(NumVProcs, Cfg, Topology::uniform(2, 4));
  GCWorld &W = TW.World;

  std::atomic<unsigned> Done{0};
  std::vector<std::thread> Threads;
  for (unsigned V = 0; V < NumVProcs; ++V) {
    Threads.emplace_back([&W, V, &Done, NumVProcs] {
      VProcHeap &H = W.heap(V);
      {
        StressMutator M(H, 0xFACE + V * 7919);
        for (int Op = 0; Op < 1200; ++Op) {
          M.step();
          if (Op % 300 == 299)
            M.verifyAll();
        }
        M.verifyAll();
      }
      Done.fetch_add(1, std::memory_order_acq_rel);
      while (Done.load(std::memory_order_acquire) < NumVProcs ||
             W.globalGCPending()) {
        H.safePoint();
        std::this_thread::yield();
      }
    });
  }
  for (auto &T : Threads)
    T.join();
  verifyWorld(W);
}

INSTANTIATE_TEST_SUITE_P(
    VProcsAndPolicies, GCStressThreaded,
    ::testing::Combine(::testing::Values(2u, 4u),
                       ::testing::Values(AllocPolicyKind::Local,
                                         AllocPolicyKind::Interleaved,
                                         AllocPolicyKind::SingleNode)),
    [](const ::testing::TestParamInfo<ThreadedParam> &Info) {
      return std::string("vp") + std::to_string(std::get<0>(Info.param)) +
             "_" +
             (std::get<1>(Info.param) == AllocPolicyKind::Local
                  ? "local"
                  : std::get<1>(Info.param) == AllocPolicyKind::Interleaved
                        ? "interleaved"
                        : "single");
    });

//===----------------------------------------------------------------------===//
// Targeted edge cases the random walk may miss
//===----------------------------------------------------------------------===//

TEST(GCEdge, OversizedRawGoesToDedicatedChunk) {
  GCConfig Cfg = smallConfig(); // 64 KiB chunks
  TestWorld TW(1, Cfg);
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  std::vector<uint8_t> Data(200 * 1024);
  for (std::size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<uint8_t>(I * 31);
  Value &Big = Frame.slot(H.allocGlobalRaw(Data.data(), Data.size()));
  EXPECT_TRUE(isGlobal(TW.World, Big));
  EXPECT_EQ(std::memcmp(rawData(Big), Data.data(), Data.size()), 0);
  // chunkOf must find it through the oversized index.
  Chunk *C = TW.World.chunks().chunkOf(Big.asPtr());
  EXPECT_TRUE(C->IsOversized);
}

TEST(GCEdge, OversizedObjectSurvivesGlobalGC) {
  GCConfig Cfg = smallConfig();
  TestWorld TW(1, Cfg);
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  std::vector<uint8_t> Data(150 * 1024);
  for (std::size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<uint8_t>(I * 13 + 1);
  Value &Big = Frame.slot(H.allocGlobalRaw(Data.data(), Data.size()));
  Word *Before = Big.asPtr();
  TW.World.requestGlobalGC();
  H.safePoint();
  EXPECT_NE(Big.asPtr(), Before) << "copied into a fresh oversized chunk";
  EXPECT_EQ(std::memcmp(rawData(Big), Data.data(), Data.size()), 0);
  verifyHeap(H);
}

TEST(GCEdge, OversizedGarbageIsFreed) {
  GCConfig Cfg = smallConfig();
  TestWorld TW(1, Cfg);
  VProcHeap &H = TW.heap();
  {
    RootScope Frame(H);
    Value &Big = Frame.slot(H.allocGlobalRaw(nullptr, 300 * 1024));
    (void)Big;
  }
  uint64_t ActiveBefore = TW.World.chunks().activeBytes();
  TW.World.requestGlobalGC();
  H.safePoint();
  EXPECT_LT(TW.World.chunks().activeBytes(), ActiveBefore)
      << "the dead oversized chunk must be released";
}

TEST(GCEdge, LocalRawAboveNurseryGoesGlobal) {
  GCConfig Cfg = smallConfig(); // 128 KiB heap, 64 KiB nursery
  TestWorld TW(1, Cfg);
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  // 80 KiB cannot fit any nursery: the slow path routes it globally
  // (raw data carries no pointers, so this is invariant-safe).
  Value &Big = Frame.slot(H.allocRaw(nullptr, 80 * 1024));
  EXPECT_TRUE(isGlobal(TW.World, Big));
  EXPECT_GT(H.Stats.BytesAllocatedGlobal, 0u);
}

TEST(GCEdge, OversizedVectorPromotesItsElements) {
  GCConfig Cfg = smallConfig();
  TestWorld TW(1, Cfg);
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  // Vector bigger than LocalHeapBytes/4 forces the global path, which
  // must promote the (local) elements first.
  const std::size_t N = Cfg.LocalHeapBytes / 4 / 8 + 16;
  // Only Elems[0] holds a pointer, and the oversized path never
  // collects (it promotes in place, then allocates globally), so the
  // element array itself needs no root; First keeps the list rooted.
  std::vector<Value> Elems(N, Value::nil());
  Value &First = Frame.slot(makeIntList(H, 5));
  Elems[0] = First;
  Value &Vec = Frame.slot(H.allocVector(Elems.data(), N));
  EXPECT_TRUE(isGlobal(TW.World, Vec));
  Value Head = vectorGet(Vec, 0);
  EXPECT_TRUE(isGlobal(TW.World, Head))
      << "global vector elements must be global";
  EXPECT_EQ(listSum(Head), intListSum(5));
  verifyHeap(H);
}

TEST(GCEdge, EmergencyEvacuationWhenHeapCrowded) {
  GCConfig Cfg;
  Cfg.LocalHeapBytes = 64 * 1024;
  Cfg.MinNurseryBytes = 4 * 1024;
  Cfg.ChunkBytes = 64 * 1024;
  Cfg.GlobalGCBytesPerVProc = 8 * 1024 * 1024;
  TestWorld TW(1, Cfg);
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  // Live data approaching the whole local heap forces the AllLocal
  // emergency path; everything must survive in the global heap.
  std::vector<Value *> Keep;
  for (int I = 0; I < 40; ++I) {
    Keep.push_back(&Frame.slot(Value::nil()));
    *Keep.back() = makeIntList(H, 60);
  }
  int64_t Total = 0;
  for (Value *V : Keep)
    Total += listSum(*V);
  EXPECT_EQ(Total, 40 * intListSum(60));
  verifyHeap(H);
}

TEST(GCEdge, AggregateStatsSumAcrossVProcs) {
  TestWorld TW(3);
  for (unsigned V = 0; V < 3; ++V) {
    RootScope Frame(TW.heap(V));
    Value &L = Frame.slot(makeIntList(TW.heap(V), 10));
    (void)L;
    TW.heap(V).minorGC();
  }
  GCStats Total = TW.World.aggregateStats();
  // The aggregate must be the sum over the per-vproc stats. (Compare
  // against the actual per-heap counts rather than a literal: under
  // GCConfig::StressGC every allocation also collects.)
  uint64_t PerHeap = 0;
  for (unsigned V = 0; V < 3; ++V)
    PerHeap += TW.heap(V).Stats.MinorPause.count();
  EXPECT_EQ(Total.MinorPause.count(), PerHeap);
  EXPECT_GE(Total.MinorPause.count(), 3u);
  EXPECT_GT(Total.BytesAllocatedLocal, 0u);
}

TEST(GCEdgeDeath, GlobalVectorRejectsLocalElements) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Local = Frame.slot(makeIntList(H, 3));
  Value Elems[1] = {Local};
  EXPECT_DEATH(H.allocGlobalVector(Elems, 1), "references a local heap");
}

TEST(GCEdgeDeath, MisconfiguredWorldAborts) {
  GCConfig Cfg;
  Cfg.LocalHeapBytes = 8 * 1024; // below the minimum
  EXPECT_DEATH(TestWorld TW(1, Cfg), "local heap size");
  GCConfig Cfg2;
  Cfg2.MinNurseryBytes = Cfg2.LocalHeapBytes; // nursery too large
  EXPECT_DEATH(TestWorld TW2(1, Cfg2), "nursery too large");
}

TEST(GCEdgeDeath, ChunkSizeMustBePowerOfTwo) {
  MemoryBanks Banks(1);
  AllocPolicy Policy(AllocPolicyKind::Local, 1);
  EXPECT_DEATH(ChunkManager Mgr(Banks, Policy, 3 * 4096), "power-of-two");
}
