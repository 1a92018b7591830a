//===- tests/HeapVerifierTest.cpp - invariant checker tests ---------------===//
//
// Part of the manticore-gc project. The verifier must accept every state
// the collectors produce (covered throughout the suite) and *reject*
// hand-built violations of the paper's invariants -- these tests corrupt
// heaps deliberately and expect the checker to abort.
//
//===----------------------------------------------------------------------===//

#include "GCTestUtils.h"
#include "gc/GCReport.h"
#include "gc/HeapVerifier.h"

#include <gtest/gtest.h>

using namespace manti;
using namespace manti::test;

TEST(HeapVerifier, EmptyWorldPasses) {
  TestWorld TW(2);
  VerifyResult R = verifyWorld(TW.World);
  EXPECT_EQ(R.LocalObjects, 0u);
  EXPECT_EQ(R.GlobalObjects, 0u);
}

TEST(HeapVerifier, CountsMatchStructure) {
  // Counts by space: a stress-forced major collection would move the
  // local list into the global heap.
  ScopedUnsetEnv NoPeriod("MANTI_STRESS_GC_PERIOD");
  TestWorld TW(1, phaseExactConfig());
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &L = Frame.slot(makeIntList(H, 10)); // 10 cons cells
  Value &G = Frame.slot(H.promote(makeIntList(H, 5)));
  (void)L;
  (void)G;
  VerifyResult R = verifyHeap(H);
  // 10 local cells (plus possibly the pre-promotion husks are NOT
  // counted: tracing goes through forwarding pointers).
  EXPECT_GE(R.LocalObjects, 10u);
  EXPECT_GE(R.GlobalObjects, 5u);
  EXPECT_GE(R.Edges, 15u);
}

TEST(HeapVerifier, SharedStructureCountedOnce) {
  // Counts local objects: a stress-forced major collection would move
  // them into the global heap.
  ScopedUnsetEnv NoPeriod("MANTI_STRESS_GC_PERIOD");
  TestWorld TW(1, phaseExactConfig());
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Shared = Frame.slot(makeIntList(H, 8));
  Value &A = Frame.slot(cons(H, Value::fromInt(1), Shared));
  Value &B = Frame.slot(cons(H, Value::fromInt(2), Shared));
  (void)A;
  (void)B;
  VerifyResult R = verifyHeap(H);
  EXPECT_EQ(R.LocalObjects, 10u) << "8 shared cells + 2 heads";
}

TEST(HeapVerifier, FollowsForwardingChains) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &L = Frame.slot(makeIntList(H, 4));
  Value Stale = L;       // unrooted copy
  H.promote(L);          // L's slot still points at the husk
  // Add the stale value as an extra root; the verifier must trace it
  // through the forwarding pointer rather than reject it.
  Frame.slot(Stale);
  VerifyResult R = verifyHeap(H);
  EXPECT_GT(R.ForwardedEdges, 0u);
}

TEST(HeapVerifierDeath, DetectsCrossVProcLocalPointer) {
  TestWorld TW(2);
  VProcHeap &H0 = TW.heap(0);
  VProcHeap &H1 = TW.heap(1);
  RootScope F0(H0);
  RootScope F1(H1);
  Value &Mine = F0.slot(makeIntList(H0, 2));
  Value &Theirs = F1.slot(makeIntList(H1, 2));
  // Corrupt: a vproc-0 cell whose tail points into vproc 1's heap.
  Value &Cell = F0.slot(cons(H0, Value::fromInt(0), Mine));
  Cell.asPtr()[1] = Theirs.bits();
  EXPECT_DEATH(verifyHeap(H0), "another vproc's local heap");
}

TEST(HeapVerifierDeath, DetectsGlobalToLocalPointer) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Local = Frame.slot(makeIntList(H, 2));
  Value &Global = Frame.slot(H.promote(makeIntList(H, 1)));
  // Corrupt: a global cell referencing the local heap (mutation of
  // global objects is exactly what the design forbids).
  Global.asPtr()[1] = Local.bits();
  EXPECT_DEATH(verifyHeap(H), "global heap points into a local heap");
}

TEST(HeapVerifierDeath, DetectsWildPointer) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Cell = Frame.slot(cons(H, Value::fromInt(0), Value::nil()));
  alignas(8) static Word Outside[4] = {makeHeader(IdRaw, 3), 0, 0, 0};
  Cell.asPtr()[1] = Value::fromPtr(&Outside[1]).bits();
  EXPECT_DEATH(verifyHeap(H), "outside every heap");
}

//===----------------------------------------------------------------------===//
// GC report
//===----------------------------------------------------------------------===//

TEST(GCReportTest, MentionsEveryPhase) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &L = Frame.slot(makeIntList(H, 50));
  H.minorGC();
  H.majorGC();
  L = H.promote(L);
  TW.World.requestGlobalGC();
  H.safePoint();

  std::string Report = buildGCReport(TW.World).human();
  for (const char *Needle :
       {"minor", "major", "promotion", "global", "allocation",
        "inter-node traffic", "uniform", "local"})
    EXPECT_NE(Report.find(Needle), std::string::npos)
        << "report must mention '" << Needle << "'\n"
        << Report;
}

TEST(GCReportTest, ReportsPolicyName) {
  GCConfig Cfg = smallConfig();
  Cfg.Policy = AllocPolicyKind::Interleaved;
  TestWorld TW(1, Cfg);
  EXPECT_NE(buildGCReport(TW.World).human().find("interleaved"),
            std::string::npos);
}
