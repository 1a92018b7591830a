//===- structures/Reclaimer.cpp - retired-node ledger ---------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "structures/Reclaimer.h"

#include "support/Assert.h"

namespace manti::structures {

GcReclaimer::GcReclaimer(unsigned NumThreads)
    : NumThreads(NumThreads), Slots(new Slot[NumThreads]) {}

void GcReclaimer::retire(unsigned Tid, std::size_t Bytes) {
  MANTI_CHECK(Tid < NumThreads, "retire from unknown thread");
  Slot &S = Slots[Tid];
  S.RetiredObjects.fetch_add(1, std::memory_order_relaxed);
  S.RetiredBytes.fetch_add(Bytes, std::memory_order_relaxed);
}

ReclaimerStats GcReclaimer::stats() const {
  ReclaimerStats Out;
  for (unsigned I = 0; I < NumThreads; ++I) {
    Out.RetiredObjects += Slots[I].RetiredObjects.load(std::memory_order_relaxed);
    Out.RetiredBytes += Slots[I].RetiredBytes.load(std::memory_order_relaxed);
  }
  return Out;
}

} // namespace manti::structures
