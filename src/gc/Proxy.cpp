//===- gc/Proxy.cpp --------------------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "gc/Proxy.h"

#include "gc/Handles.h"
#include "support/Assert.h"

#include <algorithm>
#include <atomic>

using namespace manti;

Value manti::createProxy(VProcHeap &H, Value PayloadIn) {
  RootScope S(H);
  Value &Payload = S.slot(PayloadIn);
  Word *Obj = H.globalAllocObject(IdProxy, 2);
  Obj[0] = Value::fromInt(static_cast<int64_t>(H.id())).bits();
  Obj[1] = Payload.bits();
  H.ProxyTable.push_back(Obj);
  return Value::fromPtr(Obj);
}

bool manti::isProxy(Value V) {
  return V.isPtr() && objectId(V) == IdProxy;
}

bool manti::proxyResolved(Value V) {
  assert(isProxy(V) && "not a proxy");
  return Value::fromBits(V.asPtr()[0]).asInt() < 0;
}

Value manti::proxyPayload(Value V) {
  assert(isProxy(V) && "not a proxy");
  return Value::fromBits(V.asPtr()[1]);
}

unsigned manti::proxyOwner(Value V) {
  assert(isProxy(V) && !proxyResolved(V) && "not an unresolved proxy");
  return static_cast<unsigned>(Value::fromBits(V.asPtr()[0]).asInt());
}

Value manti::resolveProxy(VProcHeap &H, Value ProxyIn) {
  MANTI_CHECK(isProxy(ProxyIn), "resolveProxy: not a proxy");
  MANTI_CHECK(!proxyResolved(ProxyIn), "resolveProxy: already resolved");
  MANTI_CHECK(proxyOwner(ProxyIn) == H.id(),
              "resolveProxy: only the owning vproc may resolve");

  RootScope S(H);
  Value &Proxy = S.slot(ProxyIn);
  Value Promoted = H.promote(proxyPayload(Proxy));
  // Promotion never moves the proxy itself (it is already global), but
  // re-read through the rooted value for clarity.
  Word *Obj = Proxy.asPtr();
  // Publication order matters for the concurrent marker, which may scan
  // this proxy mid-resolution: payload first, then the resolved owner
  // word, both release. A marker that acquires owner == -1 is then
  // guaranteed to read the promoted (global) payload, never the stale
  // local one. The old payload needs no deletion-barrier record: a local
  // referent is the owner's business, and its promoted copy is
  // epoch-retained.
  std::atomic_ref<Word>(Obj[1]).store(Promoted.bits(),
                                      std::memory_order_release);
  std::atomic_ref<Word>(Obj[0]).store(Value::fromInt(-1).bits(),
                                      std::memory_order_release);

  auto It = std::find(H.ProxyTable.begin(), H.ProxyTable.end(), Obj);
  MANTI_CHECK(It != H.ProxyTable.end(),
              "resolveProxy: proxy not registered with its owner");
  *It = H.ProxyTable.back();
  H.ProxyTable.pop_back();
  return Promoted;
}
