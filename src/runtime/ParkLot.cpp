//===- runtime/ParkLot.cpp -------------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "runtime/ParkLot.h"

#include "support/Assert.h"

#include <algorithm>
#include <cstdint>

using namespace manti;

namespace {

uint64_t steadyNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

ParkLot::ParkLot(unsigned NumNodes)
    : NumNodes(NumNodes), Bells(new NodeBell[NumNodes]) {
  MANTI_CHECK(NumNodes >= 1, "a ParkLot needs at least one node");
}

ParkLot::Token ParkLot::prepare(NodeId N) {
  return Token{Bells[N].Bell.prepare()};
}

void ParkLot::cancel(NodeId N, Token) { Bells[N].Bell.cancel(); }

bool ParkLot::park(NodeId N, Token T, std::chrono::microseconds MaxWait,
                   uint64_t *RingLatencyNanos) {
  NodeBell &B = Bells[N];
  bool Rung = B.Bell.park(T.NodeEpoch, MaxWait);
  if (Rung && RingLatencyNanos) {
    uint64_t Now = steadyNanos();
    uint64_t RingAt = B.LastRingNanos.load(std::memory_order_relaxed);
    *RingLatencyNanos = Now > RingAt ? Now - RingAt : 0;
  }
  return Rung;
}

unsigned ParkLot::ring(NodeId N) {
  NodeBell &B = Bells[N];
  B.LastRingNanos.store(steadyNanos(), std::memory_order_relaxed);
  // Wake ONE waiter (parking-lot style): one unit of work wants one
  // worker, and the woken vproc re-rings if it finds more (batch steals
  // ring their own node). Waking the whole node on every spawn
  // stampedes an oversubscribed host.
  return B.Bell.ring(1);
}

void ParkLot::ringBroadcast() {
  for (unsigned N = 0; N < NumNodes; ++N) {
    Bells[N].LastRingNanos.store(steadyNanos(), std::memory_order_relaxed);
    // A broadcast is a rendezvous (GC entry, epoch turnover): every
    // parked vproc must wake, so this is the one wake-all path.
    Bells[N].Bell.ring(INT32_MAX);
  }
}
