//===- gc/GCStats.h - per-vproc collection statistics --------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters and pause timers for every collector phase. Each vproc owns
/// one GCStats (no synchronization needed); experiments aggregate them
/// after the vprocs have stopped.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_GC_GCSTATS_H
#define MANTI_GC_GCSTATS_H

#include "support/Stats.h"

#include <cstdint>

namespace manti {

struct GCStats {
  // Minor collections (nursery -> old data area).
  DurationStat MinorPause;
  uint64_t MinorBytesCopied = 0;
  uint64_t MinorBytesReclaimed = 0;

  // Major collections (old data area -> global heap).
  DurationStat MajorPause;
  uint64_t MajorBytesPromoted = 0;
  uint64_t MajorBytesSlid = 0;

  // Explicit promotions (sharing an object with other vprocs).
  DurationStat PromotePause;
  uint64_t PromoteCalls = 0;
  uint64_t PromoteBytes = 0;

  // Global (parallel stop-the-world) collections.
  DurationStat GlobalPause;
  uint64_t GlobalBytesCopied = 0;
  uint64_t GlobalChunksScanned = 0;

  // Per-phase breakdown of the global pause. For the STW collector the
  // three sum (approximately) to GlobalPause; for a concurrent cycle
  // only the two rendezvous windows stop this mutator, so GlobalPause
  // covers those while the mark phase runs overlapped with mutation.
  DurationStat GlobalRendezvousPause; ///< snapshot/root handshakes
  DurationStat GlobalMarkPause;       ///< tracing the mutator waited on
  DurationStat GlobalSweepPause;      ///< sweep / from-space release

  /// Kernel cost of the stop-the-world collector's copy (phases 3-4,
  /// the GlobalMarkPause window), from getrusage(RUSAGE_THREAD) deltas
  /// this vproc took around it: minor page faults (mostly first touches
  /// of fresh to-space pages) and system CPU time.
  uint64_t GlobalMarkMinorFaults = 0;
  uint64_t GlobalMarkSysNanos = 0;

  /// Time-to-safepoint of the stop-the-world collector: from the
  /// request to this vproc's arrival in the collection. Mutator time,
  /// not pause, so maxPauseNanos() leaves it out.
  DurationStat GlobalSafepointWait;

  // Allocation volume.
  uint64_t BytesAllocatedLocal = 0;
  uint64_t BytesAllocatedGlobal = 0;

  // Size-class cache effectiveness (small-vector allocation): pops from
  // a per-vproc freelist vs. refills/misses, and how many times a
  // collection dropped the whole cache.
  uint64_t SizeClassHits = 0;
  uint64_t SizeClassMisses = 0;
  uint64_t SizeClassFlushes = 0;

  // Chunk acquisitions by synchronization class (paper Sections 3.1 and
  // 3.4): served from this vproc's node shard, stolen from another
  // node's shard, or by a fresh batched registration (global cost).
  uint64_t ChunkLocalReuses = 0;
  uint64_t ChunkCrossNodeSteals = 0;
  uint64_t ChunkFreshRegistrations = 0;

  /// Longest single mutator pause of any collector phase -- the number a
  /// serving workload's tail latency is bounded below by, reported
  /// alongside the request percentiles (bench/serving_kv.cpp).
  uint64_t maxPauseNanos() const {
    uint64_t Max = MinorPause.maxNanos();
    if (MajorPause.maxNanos() > Max)
      Max = MajorPause.maxNanos();
    if (PromotePause.maxNanos() > Max)
      Max = PromotePause.maxNanos();
    if (GlobalPause.maxNanos() > Max)
      Max = GlobalPause.maxNanos();
    return Max;
  }

  /// Merges another vproc's stats into this one (for reporting).
  void merge(const GCStats &O) {
    MinorPause.merge(O.MinorPause);
    MinorBytesCopied += O.MinorBytesCopied;
    MinorBytesReclaimed += O.MinorBytesReclaimed;
    MajorPause.merge(O.MajorPause);
    MajorBytesPromoted += O.MajorBytesPromoted;
    MajorBytesSlid += O.MajorBytesSlid;
    PromotePause.merge(O.PromotePause);
    PromoteCalls += O.PromoteCalls;
    PromoteBytes += O.PromoteBytes;
    GlobalPause.merge(O.GlobalPause);
    GlobalBytesCopied += O.GlobalBytesCopied;
    GlobalChunksScanned += O.GlobalChunksScanned;
    GlobalRendezvousPause.merge(O.GlobalRendezvousPause);
    GlobalMarkPause.merge(O.GlobalMarkPause);
    GlobalSweepPause.merge(O.GlobalSweepPause);
    GlobalMarkMinorFaults += O.GlobalMarkMinorFaults;
    GlobalMarkSysNanos += O.GlobalMarkSysNanos;
    GlobalSafepointWait.merge(O.GlobalSafepointWait);
    BytesAllocatedLocal += O.BytesAllocatedLocal;
    BytesAllocatedGlobal += O.BytesAllocatedGlobal;
    SizeClassHits += O.SizeClassHits;
    SizeClassMisses += O.SizeClassMisses;
    SizeClassFlushes += O.SizeClassFlushes;
    ChunkLocalReuses += O.ChunkLocalReuses;
    ChunkCrossNodeSteals += O.ChunkCrossNodeSteals;
    ChunkFreshRegistrations += O.ChunkFreshRegistrations;
  }
};

} // namespace manti

#endif // MANTI_GC_GCSTATS_H
