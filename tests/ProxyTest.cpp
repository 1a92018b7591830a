//===- tests/ProxyTest.cpp - object proxy tests ---------------------------===//
//
// Part of the manticore-gc project. Proxies allow references from the
// global heap back into a local heap (Section 3.1, footnote 1).
//
//===----------------------------------------------------------------------===//

#include "GCTestUtils.h"
#include "gc/HeapVerifier.h"
#include "gc/Proxy.h"

#include <gtest/gtest.h>

using namespace manti;
using namespace manti::test;

TEST(Proxy, CreateAllocatesGlobalObject) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Payload = Frame.slot(makeIntList(H, 4));
  Value &P = Frame.slot(createProxy(H, Payload));
  EXPECT_TRUE(isProxy(P));
  EXPECT_TRUE(isGlobal(TW.World, P));
  EXPECT_FALSE(proxyResolved(P));
  EXPECT_EQ(proxyOwner(P), H.id());
  EXPECT_EQ(H.ProxyTable.size(), 1u);
}

TEST(Proxy, PayloadStaysLocalUntilResolved) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Payload = Frame.slot(makeIntList(H, 4));
  Value &P = Frame.slot(createProxy(H, Payload));
  EXPECT_TRUE(isLocalTo(H, proxyPayload(P)))
      << "the whole point of a proxy: global object, local payload";
  verifyHeap(H); // sanctioned exception must pass the invariant checker
}

TEST(Proxy, OwnerMinorGCForwardsPayload) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Payload = Frame.slot(makeIntList(H, 6));
  Value &P = Frame.slot(createProxy(H, Payload));
  H.minorGC();
  // The payload moved out of the nursery; the proxy's slot must track it.
  Value NewPayload = proxyPayload(P);
  EXPECT_TRUE(isLocalTo(H, NewPayload));
  EXPECT_EQ(listSum(NewPayload), intListSum(6));
}

TEST(Proxy, PayloadSurvivesEvenWithoutOtherRoots) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &P = Frame.slot(Value::nil()); // rooted before the proxy lands
  {
    RootScope Inner(H);
    Value &Payload = Inner.slot(makeIntList(H, 9));
    P = createProxy(H, Payload);
    // Payload's own root goes away here; only the proxy table keeps the
    // list alive.
  }
  H.minorGC();
  H.minorGC();
  EXPECT_EQ(listSum(proxyPayload(P)), intListSum(9))
      << "proxy table must act as a root set for unresolved payloads";
}

TEST(Proxy, ResolvePromotesPayload) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Payload = Frame.slot(makeIntList(H, 5));
  Value &P = Frame.slot(createProxy(H, Payload));
  Value &Global = Frame.slot(resolveProxy(H, P));
  EXPECT_TRUE(proxyResolved(P));
  EXPECT_TRUE(isGlobal(TW.World, Global));
  EXPECT_EQ(proxyPayload(P), Global);
  EXPECT_EQ(listSum(Global), intListSum(5));
  EXPECT_TRUE(H.ProxyTable.empty()) << "resolution unregisters the proxy";
}

TEST(Proxy, ResolvedProxySurvivesLocalGCsUntouched) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &Payload = Frame.slot(makeIntList(H, 5));
  Value &P = Frame.slot(createProxy(H, Payload));
  resolveProxy(H, P);
  H.majorGC();
  EXPECT_TRUE(proxyResolved(P));
  EXPECT_EQ(listSum(proxyPayload(P)), intListSum(5));
  verifyHeap(H);
}

TEST(Proxy, IntPayloadNeedsNoHeap) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &P = Frame.slot(createProxy(H, Value::fromInt(77)));
  EXPECT_EQ(proxyPayload(P).asInt(), 77);
  Value R = resolveProxy(H, P);
  EXPECT_EQ(R.asInt(), 77);
}

TEST(Proxy, MultipleProxiesTrackIndependently) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope Frame(H);
  Value &PayA = Frame.slot(makeIntList(H, 3));
  Value &PayB = Frame.slot(makeIntList(H, 7));
  Value &PA = Frame.slot(createProxy(H, PayA));
  Value &PB = Frame.slot(createProxy(H, PayB));
  EXPECT_EQ(H.ProxyTable.size(), 2u);
  H.minorGC();
  EXPECT_EQ(listSum(proxyPayload(PA)), intListSum(3));
  EXPECT_EQ(listSum(proxyPayload(PB)), intListSum(7));
  resolveProxy(H, PA);
  EXPECT_EQ(H.ProxyTable.size(), 1u);
  EXPECT_FALSE(proxyResolved(PB));
}

TEST(Proxy, DeathOnForeignResolve) {
  TestWorld TW(2);
  VProcHeap &H0 = TW.heap(0);
  VProcHeap &H1 = TW.heap(1);
  RootScope Frame(H0);
  Value &P = Frame.slot(createProxy(H0, Value::fromInt(1)));
  EXPECT_DEATH(resolveProxy(H1, P), "owning vproc");
}
