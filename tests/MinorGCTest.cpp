//===- tests/MinorGCTest.cpp - minor collection behaviour (Fig. 2) --------===//
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

TEST(MinorGC, LiveDataSurvives) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &List = Frame.slot(makeIntList(H, 100));
  H.minorGC();
  EXPECT_EQ(listLength(List), 100);
  EXPECT_EQ(listSum(List), intListSum(100));
}

TEST(MinorGC, RootSlotIsForwarded) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &List = Frame.slot(makeIntList(H, 4));
  Word *Before = List.asPtr();
  ASSERT_TRUE(H.local().inNursery(Before));
  H.minorGC();
  EXPECT_NE(List.asPtr(), Before) << "object moved out of the nursery";
  EXPECT_TRUE(H.local().inYoungData(List.asPtr()))
      << "minor GC output is the young-data area";
}

TEST(MinorGC, GarbageIsReclaimed) {
  // Runs under MANTI_STRESS_GC too (it used to be skipped): a stress
  // period longer than this test's allocation count keeps the forced
  // collections away from the phase-exact byte accounting below. The
  // MANTI_STRESS_GC_PERIOD env override would clobber the pinned
  // period, so shelve it around the world's construction.
  ScopedUnsetEnv NoPeriod("MANTI_STRESS_GC_PERIOD");
  TestWorld TW(1, phaseExactConfig());
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Live = Frame.slot(makeIntList(H, 10));
  allocGarbage(H, 200);
  std::size_t UsedBefore = H.local().nurseryUsedBytes();
  H.minorGC();
  EXPECT_GT(H.Stats.MinorBytesReclaimed, 0u);
  EXPECT_LT(H.Stats.MinorBytesCopied, UsedBefore);
  EXPECT_EQ(listSum(Live), intListSum(10));
}

TEST(MinorGC, EmptyNurseryIsCheap) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  H.minorGC();
  EXPECT_EQ(H.Stats.MinorBytesCopied, 0u);
  EXPECT_EQ(H.local().localDataBytes(), 0u);
}

TEST(MinorGC, SharedStructureStaysShared) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Shared = Frame.slot(makeIntList(H, 5));
  Value &A = Frame.slot(cons(H, Value::fromInt(1), Shared));
  Value &B = Frame.slot(cons(H, Value::fromInt(2), Shared));
  H.minorGC();
  EXPECT_EQ(vectorGet(A, 1).asPtr(), vectorGet(B, 1).asPtr())
      << "forwarding must preserve sharing, not duplicate the tail";
  EXPECT_EQ(listSum(vectorGet(A, 1)), intListSum(5));
}

TEST(MinorGC, NurseryResetAfterCollection) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Frame.slot(makeIntList(H, 50));
  H.minorGC();
  EXPECT_EQ(H.local().nurseryUsedBytes(), 0u);
  EXPECT_GT(H.local().nurseryCapacityBytes(), 0u);
}

TEST(MinorGC, SecondMinorTurnsYoungIntoOld) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &List = Frame.slot(makeIntList(H, 20));
  H.minorGC();
  ASSERT_TRUE(H.local().inYoungData(List.asPtr()));
  H.minorGC(); // nothing new in the nursery
  EXPECT_TRUE(H.local().inOldData(List.asPtr()))
      << "young data is only what the last minor collection copied";
  EXPECT_EQ(listSum(List), intListSum(20));
}

TEST(MinorGC, ManyCollectionsPreserveDeepStructure) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &List = Frame.slot(makeIntList(H, 300));
  for (int I = 0; I < 10; ++I) {
    allocGarbage(H, 50);
    H.minorGC();
    ASSERT_EQ(listLength(List), 300) << "iteration " << I;
    ASSERT_EQ(listSum(List), intListSum(300)) << "iteration " << I;
  }
}

TEST(MinorGC, AutomaticallyTriggeredBySlowPath) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &List = Frame.slot(makeIntList(H, 10));
  // Allocate until the nursery must have cycled several times.
  allocGarbage(H, 20000);
  EXPECT_GT(H.Stats.MinorPause.count(), 0u);
  EXPECT_EQ(listSum(List), intListSum(10));
}

TEST(MinorGC, InvariantsHoldAfterCollections) {
  // Counts local objects: a stress-forced major collection would move
  // the list into the global heap.
  ScopedUnsetEnv NoPeriod("MANTI_STRESS_GC_PERIOD");
  TestWorld TW(1, phaseExactConfig());
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &List = Frame.slot(makeIntList(H, 64));
  allocGarbage(H, 500);
  H.minorGC();
  VerifyResult R = verifyHeap(H);
  EXPECT_GE(R.LocalObjects, 64u);
  EXPECT_EQ(listSum(List), intListSum(64));
}

TEST(MinorGC, MixedObjectsAreScannedViaDescriptors) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  // A mixed type: [rawWord, ptr, rawWord] -- only word 1 is a pointer.
  uint16_t Id = TW.World.descriptors().registerMixed("triple", 3, {1});
  RootScope Frame(H);
  Value &Inner = Frame.slot(makeIntList(H, 3));
  // The rooted variant re-reads Inner after the allocation: the raw
  // snapshot pattern breaks under GCConfig::StressGC, which collects
  // inside every allocation.
  Word Fields[3] = {0xDEAD, 0, 0xBEEF};
  Value *Slots[1] = {&Inner};
  Value &Mixed = Frame.slot(gcinternal::allocMixedRooted(H, Id, Fields, Slots));
  H.minorGC();
  EXPECT_EQ(mixedGetWord(Mixed, 0), 0xDEADu);
  EXPECT_EQ(mixedGetWord(Mixed, 2), 0xBEEFu);
  EXPECT_EQ(listSum(mixedGet(Mixed, 1)), intListSum(3))
      << "pointer field must be forwarded by the generated scanner";
}

TEST(MinorGC, AllocMixedRootedSurvivesMidAllocationCollection) {
  // Build a long chain of mixed nodes; the allocations trigger many
  // collections mid-build, and the rooted-slot variant must never leave
  // stale child pointers behind.
  TestWorld TW;
  VProcHeap &H = TW.heap();
  uint16_t Id = TW.World.descriptors().registerMixed("chain", 3, {0});
  RootScope Frame(H);
  Value &Root = Frame.slot(Value::nil());
  const int64_t N = 20000; // far beyond one nursery
  for (int64_t I = 0; I < N; ++I) {
    Word Fields[3] = {Root.bits(), static_cast<Word>(I), 0};
    Value *Slots[1] = {&Root};
    Root = gcinternal::allocMixedRooted(H, Id, Fields, Slots);
  }
  EXPECT_GT(H.Stats.MinorPause.count(), 0u) << "build must have collected";
  int64_t Len = 0;
  for (Value Cur = Root; !Cur.isNil(); Cur = mixedGet(Cur, 0))
    ++Len;
  EXPECT_EQ(Len, N);
}

TEST(MinorGC, RawObjectsAreNotScanned) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  // Raw payload that would look like a pointer if misinterpreted.
  uint64_t Bogus[4] = {0x10, 0x20, 0x30, 0x40};
  Value &Raw = Frame.slot(H.allocRaw(Bogus, sizeof(Bogus)));
  H.minorGC();
  EXPECT_EQ(rawSizeBytes(Raw), sizeof(Bogus));
  EXPECT_EQ(static_cast<uint64_t *>(rawData(Raw))[3], 0x40u);
}
