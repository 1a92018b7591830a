//===- tests/PromotionTest.cpp - object promotion tests -------------------===//
//
// Part of the manticore-gc project. Promotion copies an object graph
// into the global heap so it can be shared across vprocs (Section 3.1).
//
//===----------------------------------------------------------------------===//

// Collector test: exercises the raw mixed allocator beneath the handle
// layer on purpose.
#define MANTI_GC_INTERNAL 1

#include "GCTestUtils.h"
#include "gc/HeapVerifier.h"

#include <gtest/gtest.h>

using namespace manti;
using namespace manti::test;

TEST(Promotion, NonPointersPassThrough) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  EXPECT_EQ(H.promote(Value::fromInt(42)), Value::fromInt(42));
  EXPECT_EQ(H.promote(Value::nil()), Value::nil());
}

TEST(Promotion, CopiesWholeGraphToGlobal) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &List = Frame.slot(makeIntList(H, 20));
  Value &Promoted = Frame.slot(H.promote(List));
  for (Value Cur = Promoted; !Cur.isNil(); Cur = vectorGet(Cur, 1))
    EXPECT_TRUE(isGlobal(TW.World, Cur));
  EXPECT_EQ(listSum(Promoted), intListSum(20));
  EXPECT_GT(H.Stats.PromoteBytes, 0u);
  EXPECT_EQ(H.Stats.PromoteCalls, 1u);
}

TEST(Promotion, AlreadyGlobalIsIdempotent) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &List = Frame.slot(makeIntList(H, 5));
  Value &P1 = Frame.slot(H.promote(List));
  uint64_t BytesAfterFirst = H.Stats.PromoteBytes;
  Value &P2 = Frame.slot(H.promote(P1));
  EXPECT_EQ(P1, P2) << "promoting a global value is the identity";
  EXPECT_EQ(H.Stats.PromoteBytes, BytesAfterFirst);
}

TEST(Promotion, HusksRepairOtherCopiesAtNextMinor) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &List = Frame.slot(makeIntList(H, 8));
  Value &Promoted = Frame.slot(H.promote(List));
  // The original root still points at the husk; its data words are
  // intact, so reads keep working.
  EXPECT_NE(List.asPtr(), Promoted.asPtr());
  EXPECT_EQ(listSum(List), intListSum(8));
  // The next minor collection forwards the root through the husk.
  H.minorGC();
  EXPECT_EQ(List.asPtr(), Promoted.asPtr())
      << "minor GC must repair stale copies through forwarding pointers";
}

TEST(Promotion, SharedTailPromotedOnce) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Shared = Frame.slot(makeIntList(H, 6));
  Value &A = Frame.slot(cons(H, Value::fromInt(1), Shared));
  Value &B = Frame.slot(cons(H, Value::fromInt(2), Shared));
  Value &PA = Frame.slot(H.promote(A));
  Value &PB = Frame.slot(H.promote(B));
  EXPECT_EQ(vectorGet(PA, 1).asPtr(), vectorGet(PB, 1).asPtr())
      << "second promotion must reuse the forwarding pointers";
  EXPECT_EQ(listSum(vectorGet(PB, 1)), intListSum(6));
}

TEST(Promotion, PartialGraphOnlyReachableMoves) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Keep = Frame.slot(makeIntList(H, 10));
  Value &Other = Frame.slot(makeIntList(H, 10));
  H.promote(Keep);
  EXPECT_TRUE(isLocalTo(H, Other))
      << "promotion must not drag unrelated objects to the global heap";
}

TEST(Promotion, PromotedDataSurvivesLocalCollections) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &List = Frame.slot(makeIntList(H, 30));
  List = H.promote(List);
  for (int I = 0; I < 5; ++I) {
    allocGarbage(H, 500);
    H.minorGC();
  }
  H.majorGC();
  EXPECT_EQ(listSum(List), intListSum(30));
  verifyHeap(H);
}

TEST(Promotion, MixedObjectGraph) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  uint16_t Id = TW.World.descriptors().registerMixed("node2", 3, {0, 1});
  RootScope Frame(H);
  Value &L = Frame.slot(makeIntList(H, 3));
  Value &R = Frame.slot(makeIntList(H, 4));
  // allocMixedRooted re-reads the rooted slots after the allocation: the
  // raw allocMixed snapshot pattern breaks under GCConfig::StressGC,
  // which forces a collection inside every allocation.
  Word Fields[3] = {0, 0, 777};
  Value *Slots[2] = {&L, &R};
  Value &Node = Frame.slot(gcinternal::allocMixedRooted(H, Id, Fields, Slots));
  Value &P = Frame.slot(H.promote(Node));
  EXPECT_TRUE(isGlobal(TW.World, P));
  EXPECT_TRUE(isGlobal(TW.World, mixedGet(P, 0)));
  EXPECT_TRUE(isGlobal(TW.World, mixedGet(P, 1)));
  EXPECT_EQ(mixedGetWord(P, 2), 777u);
  EXPECT_EQ(listSum(mixedGet(P, 0)), intListSum(3));
  EXPECT_EQ(listSum(mixedGet(P, 1)), intListSum(4));
}

TEST(Promotion, LargePromotionSpansChunks) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  // Each cons cell is 3 words = 24 bytes; 4000 cells > one 64 KiB chunk.
  Value &List = Frame.slot(makeIntList(H, 4000));
  Value &P = Frame.slot(H.promote(List));
  EXPECT_EQ(listLength(P), 4000);
  EXPECT_EQ(listSum(P), intListSum(4000));
  EXPECT_GT(TW.World.chunks().numChunksCreated(), 1u);
}

TEST(Promotion, WorldInvariantsAfterPromotions) {
  TestWorld TW(2);
  VProcHeap &H0 = TW.heap(0);
  RootScope Frame(H0);
  Value &A = Frame.slot(makeIntList(H0, 12));
  A = H0.promote(A);
  VerifyResult R = verifyWorld(TW.World);
  EXPECT_GE(R.GlobalObjects, 12u);
}
