//===- runtime/VProc.cpp ---------------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "runtime/VProc.h"

#include "runtime/Runtime.h"
#include "runtime/Scheduler.h"
#include "support/Assert.h"
#include "support/Logging.h"

#include <algorithm>

using namespace manti;

VProc::VProc(Runtime &RT, VProcHeap &Heap)
    : RT(RT), Heap(Heap), Rng(0x5eedULL + Heap.id() * 0x9E3779B9ULL) {}

void VProc::spawn(Task T) {
  ++SStats.Spawns;
  if (!RT.lazyPromotion()) {
    // Eager promotion: pay the cost on every spawn whether or not the
    // task is ever stolen (the ablation baseline).
    T.Env = Heap.promote(T.Env);
  }
  ReadyQ.push_back(T);
  Depth.store(ReadyQ.size(), std::memory_order_relaxed);
  // New work is a wake-up event: ring the hinted node (or this one) so
  // parked vprocs come and steal instead of running out their backstop.
  RT.scheduler().noteSpawn(*this, T);
}

bool VProc::runOneLocal() {
  if (ReadyQ.empty())
    return false;
  Task T = ReadyQ.back();
  ReadyQ.pop_back();
  Depth.store(ReadyQ.size(), std::memory_order_relaxed);
  runTask(T);
  return true;
}

void VProc::enqueueStolen(Task T) {
  ReadyQ.push_back(T);
  Depth.store(ReadyQ.size(), std::memory_order_relaxed);
}

unsigned VProc::popForSteal(NodeId ThiefNode, unsigned Max, Task *Out,
                            unsigned *AffinityMatches) {
  std::size_t K = ReadyQ.size();
  MANTI_CHECK(K > 0 && Max > 0 && Max <= MaxTaskBatch,
              "popForSteal needs a non-empty queue and a batch-sized Max");
  unsigned Take = static_cast<unsigned>(std::min<std::size_t>(Max, K));
  // Rank the oldest tasks into three classes: hinted at the thief (0),
  // unhinted (1), hinted elsewhere (2) -- those would rather stay, but a
  // starved thief still gets them. Picking class by class, ascending
  // within each, keeps oldest-first inside a class; the window bounds
  // the scan so a deep queue never makes a handshake O(queue).
  auto ClassOf = [ThiefNode](NodeId Hint) {
    return Hint == ThiefNode ? 0 : (Hint == Task::NoAffinity ? 1 : 2);
  };
  constexpr std::size_t ScanWindow = 4 * MaxTaskBatch;
  std::size_t Window = std::min<std::size_t>(K, ScanWindow);
  std::size_t Picked[MaxTaskBatch];
  unsigned N = 0;
  unsigned Matches = 0;
  for (int Class = 0; Class < 3 && N < Take; ++Class) {
    for (std::size_t I = 0; I < Window && N < Take; ++I) {
      if (ClassOf(ReadyQ[I].Affinity) != Class)
        continue; // each index belongs to exactly one class
      Picked[N++] = I;
      if (Class == 0)
        ++Matches;
    }
  }
  for (unsigned I = 0; I < N; ++I)
    Out[I] = ReadyQ[Picked[I]];
  // Erase highest index first so the remaining indices stay valid; all
  // of them lie in the window, so each erase shifts at most the window.
  std::sort(Picked, Picked + N);
  for (unsigned I = N; I-- > 0;)
    ReadyQ.erase(ReadyQ.begin() + static_cast<std::ptrdiff_t>(Picked[I]));
  Depth.store(ReadyQ.size(), std::memory_order_relaxed);
  if (AffinityMatches)
    *AffinityMatches = Matches;
  return N;
}

void VProc::runTask(Task T) { T.Fn(RT, *this, T); }

bool VProc::serviceSteal() { return RT.scheduler().serviceSteal(*this); }

void VProc::poll() {
  serviceSteal();
  Heap.safePoint();
}

bool VProc::stealAndRun() { return RT.scheduler().stealAndRun(*this); }

void JoinCounter::sub(int64_t N) {
  // Counters are stack-allocated in the joiner's frame: the decrement
  // that completes the region releases the joiner, which may return and
  // destroy the counter at any point after it. So the waiter is loaded
  // first, and nothing on this object is touched after the fetch_sub.
  VProc *W = Waiter.load(std::memory_order_acquire);
  if (Pending.fetch_sub(N, std::memory_order_acq_rel) - N > 0)
    return;
  if (!W)
    return;
  // The fetch_sub above published the completion. No stats bump: the
  // SchedStats ring counters are owner-thread-only, and sub() runs on
  // whichever vproc finished the subtask.
  W->runtime().scheduler().parkLot().ringParked(W->node());
}

void VProc::joinWait(JoinCounter &Join) {
  Scheduler &Sched = RT.scheduler();
  // Targeted wake-up routing: the completing sub() rings this node, so
  // runUntil's idle parks can use their full bounded backstop
  // instead of busy-polling the counter.
  Join.setWaiter(this);
  Sched.runUntil(
      *this, [](void *C) { return static_cast<JoinCounter *>(C)->done(); },
      &Join);
  // Drop the registration: the counter may be reused for a later region
  // whose completing sub() must not ring on a stale waiter.
  Join.setWaiter(nullptr);
  Sched.noteProgress(*this);
}

//===----------------------------------------------------------------------===//
// ResultCell
//===----------------------------------------------------------------------===//

ResultCell::ResultCell(VProc &Owner) : Owner(Owner) {
  Owner.Cells.push_back(this);
}

ResultCell::~ResultCell() {
  // LIFO discipline in practice, but tolerate arbitrary order.
  auto &Cells = Owner.Cells;
  for (std::size_t I = Cells.size(); I-- > 0;) {
    if (Cells[I] == this) {
      Cells[I] = Cells.back();
      Cells.pop_back();
      return;
    }
  }
  MANTI_UNREACHABLE("result cell was not registered with its owner");
}

void ResultCell::fill(VProc &Producer, Value V) {
  if (&Producer != &Owner) {
    // Cross-vproc result: the value must leave the producer's local heap
    // before the owner may see it.
    V = Producer.heap().promote(V);
  }
  Bits = V.bits();
  Filled.store(true, std::memory_order_release);
}
