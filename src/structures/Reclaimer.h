//===- structures/Reclaimer.h - retired-node ledger for lock-free sets ----===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lock-free set unlinks nodes while other threads may still be
/// traversing them; *something* must keep the memory alive until every
/// such traversal is done. Here the runtime collector is that something:
/// an unlinked node is an ordinary unreachable heap object, freed by the
/// next global collection that finds no path to it. GcReclaimer
/// therefore frees nothing. It keeps the retired-bytes ledger that the
/// structures bench compares against what the collector actually
/// reclaimed.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_STRUCTURES_RECLAIMER_H
#define MANTI_STRUCTURES_RECLAIMER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace manti::structures {

/// Retired-node counters, summed over threads.
struct ReclaimerStats {
  uint64_t RetiredObjects = 0;
  uint64_t RetiredBytes = 0;
};

/// Ledger of nodes the GC-backed structures have unlinked. Thread
/// identity is the vproc id; each physically unlinked node is reported
/// through retire exactly once.
class GcReclaimer {
public:
  explicit GcReclaimer(unsigned NumThreads);

  /// Records one unlinked node of \p Bytes bytes on thread \p Tid.
  void retire(unsigned Tid, std::size_t Bytes);

  ReclaimerStats stats() const;

private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> RetiredObjects{0};
    std::atomic<uint64_t> RetiredBytes{0};
  };
  unsigned NumThreads;
  std::unique_ptr<Slot[]> Slots;
};

} // namespace manti::structures

#endif // MANTI_STRUCTURES_RECLAIMER_H
