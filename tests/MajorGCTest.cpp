//===- tests/MajorGCTest.cpp - major collection behaviour (Fig. 3) --------===//
//
// Part of the manticore-gc project.
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

TEST(MajorGC, YoungDataStaysLocal) {
  // Runs under MANTI_STRESS_GC too (it used to be skipped): a stress
  // period longer than this test's allocation count keeps the forced
  // collections out of the setup, so the zero-promotion premise holds
  // while the stress plumbing (period schedule included) still runs.
  // The MANTI_STRESS_GC_PERIOD env override would clobber the pinned
  // period, so shelve it around the world's construction.
  ScopedUnsetEnv NoPeriod("MANTI_STRESS_GC_PERIOD");
  TestWorld TW(1, phaseExactConfig());
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &List = Frame.slot(makeIntList(H, 30));
  // majorGC runs its own preceding minor; the list is copied by that
  // minor and is therefore young -- it must NOT be promoted ("the young
  // data are guaranteed to be live ... we do not copy it to the global
  // heap").
  H.majorGC();
  EXPECT_TRUE(isLocalTo(H, List));
  EXPECT_EQ(H.Stats.MajorBytesPromoted, 0u);
  EXPECT_EQ(listSum(List), intListSum(30));
}

TEST(MajorGC, OldDataIsPromotedToGlobal) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &List = Frame.slot(makeIntList(H, 30));
  H.minorGC(); // List becomes young
  H.minorGC(); // List becomes old
  H.majorGC(); // old data moves to the global heap
  EXPECT_FALSE(isLocalTo(H, List));
  EXPECT_TRUE(isGlobal(TW.World, List));
  EXPECT_GT(H.Stats.MajorBytesPromoted, 0u);
  EXPECT_EQ(listSum(List), intListSum(30));
}

TEST(MajorGC, YoungSlidesToHeapBase) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &OldList = Frame.slot(makeIntList(H, 40));
  H.minorGC();
  H.minorGC(); // OldList now old
  Value &YoungList = Frame.slot(makeIntList(H, 25));
  H.majorGC(); // minor copies YoungList to young, then old evacuates
  // After the slide, the retained data occupies [base, oldTop) (Fig. 3).
  EXPECT_TRUE(H.local().inOldData(YoungList.asPtr()))
      << "slid young data becomes the old area";
  EXPECT_EQ(H.local().youngStart(), H.local().oldTop())
      << "young area is empty until the next minor collection";
  EXPECT_GT(H.Stats.MajorBytesSlid, 0u);
  EXPECT_EQ(listSum(YoungList), intListSum(25));
  EXPECT_EQ(listSum(OldList), intListSum(40));
}

TEST(MajorGC, CrossRegionPointersAreRewritten) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &OldTail = Frame.slot(makeIntList(H, 10));
  H.minorGC();
  H.minorGC(); // OldTail is old
  // New cell referencing old data: young -> old edge at major time.
  Value &Young = Frame.slot(cons(H, Value::fromInt(99), OldTail));
  H.majorGC();
  EXPECT_TRUE(isLocalTo(H, Young));
  Value Tail = vectorGet(Young, 1);
  EXPECT_TRUE(isGlobal(TW.World, Tail))
      << "young object's field must point at the promoted copy";
  EXPECT_EQ(listSum(Tail), intListSum(10));
}

TEST(MajorGC, GlobalCopiesReferenceGlobalCopies) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &List = Frame.slot(makeIntList(H, 50));
  H.minorGC();
  H.minorGC();
  H.majorGC();
  // Walk the promoted list: every cell must be global (the evacuator
  // drains transitively).
  Value Cur = List;
  while (!Cur.isNil()) {
    EXPECT_TRUE(isGlobal(TW.World, Cur));
    Cur = vectorGet(Cur, 1);
  }
  verifyHeap(H);
}

TEST(MajorGC, EmptyHeapIsANoop) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  H.majorGC();
  EXPECT_EQ(H.Stats.MajorBytesPromoted, 0u);
  EXPECT_EQ(H.local().localDataBytes(), 0u);
}

TEST(MajorGC, TriggeredByNurseryThreshold) {
  GCConfig Cfg = smallConfig();
  Cfg.MinNurseryBytes = 30 * 1024; // aggressive threshold
  TestWorld TW(1, Cfg);
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  // Keep a growing amount of live data so minor collections shrink the
  // nursery below the threshold and force majors.
  std::vector<Value *> Lists;
  for (int I = 0; I < 8; ++I) {
    Value &Slot = Frame.slot(Value::nil());
    Slot = makeIntList(H, 400);
    Lists.push_back(&Slot);
  }
  allocGarbage(H, 4000);
  EXPECT_GT(H.Stats.MajorPause.count(), 0u)
      << "slow path must escalate to a major collection";
  for (Value *Slot : Lists)
    EXPECT_EQ(listSum(*Slot), intListSum(400));
}

TEST(MajorGC, StatsAccumulate) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &A = Frame.slot(makeIntList(H, 100));
  H.minorGC();
  H.minorGC();
  H.majorGC();
  uint64_t First = H.Stats.MajorBytesPromoted;
  EXPECT_GT(First, 0u);
  Value &B = Frame.slot(makeIntList(H, 100));
  H.minorGC();
  H.minorGC();
  H.majorGC();
  EXPECT_GT(H.Stats.MajorBytesPromoted, First);
  EXPECT_EQ(listSum(A), intListSum(100));
  EXPECT_EQ(listSum(B), intListSum(100));
}

TEST(MajorGC, RepeatedCyclesKeepInvariants) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Keep = Frame.slot(makeIntList(H, 128));
  for (int I = 0; I < 6; ++I) {
    allocGarbage(H, 300);
    Value Temp = makeIntList(H, 64);
    (void)Temp;
    H.majorGC();
    ASSERT_EQ(listSum(Keep), intListSum(128)) << "cycle " << I;
    verifyHeap(H);
  }
}

TEST(MajorGC, MixedObjectsPromoteCorrectly) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  uint16_t Id = TW.World.descriptors().registerMixed("pairRawPtr", 2, {1});
  RootScope Frame(H);
  Value &Inner = Frame.slot(makeIntList(H, 7));
  // Rooted variant: see MinorGCTest -- the raw snapshot pattern breaks
  // under GCConfig::StressGC.
  Word Fields[2] = {12345, 0};
  Value *Slots[1] = {&Inner};
  Value &Mixed = Frame.slot(gcinternal::allocMixedRooted(H, Id, Fields, Slots));
  H.minorGC();
  H.minorGC();
  H.majorGC();
  EXPECT_TRUE(isGlobal(TW.World, Mixed));
  EXPECT_EQ(mixedGetWord(Mixed, 0), 12345u);
  EXPECT_EQ(listSum(mixedGet(Mixed, 1)), intListSum(7));
}

TEST(MajorGC, TrafficIsRecorded) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Frame.slot(makeIntList(H, 200));
  H.minorGC();
  H.minorGC();
  uint64_t Before = TW.World.traffic().totalBytes();
  H.majorGC();
  EXPECT_GT(TW.World.traffic().totalBytes(), Before)
      << "evacuation must be charged to the traffic ledger";
}
