//===- workloads/Quicksort.h - NESL-style parallel quicksort --------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Quicksort benchmark: "sorts a sequence of 10,000,000
/// integers in parallel. This code is based on the NESL version of the
/// algorithm" -- three-way partition into (less, equal, greater)
/// sequences, recursive parallel sorts of the outer two, then
/// concatenation. Sequences are ropes; the recursive sub-sort for the
/// greater partition is spawned as a task whose environment *is* the
/// rope, so a steal promotes the partition to the global heap -- the
/// lazy-promotion path the runtime is designed around.
///
/// The partition is NESL's parallel filter, forked over the rope's own
/// tree: above a grain of 64K elements, the filter of a node's right
/// child is spawned the same way (its environment is the subrope, so a
/// steal promotes it), the left child is filtered in place, and the two
/// halves' (less, equal, greater) ropes are concatenated pairwise. Only
/// ropes within the grain are partitioned by a flat pass, so no vproc
/// runs a long stretch without allocating or polling -- which would
/// hold up a global-collection rendezvous or a waiting thief. The flat
/// pass is one branch-free filter over the rope's leaves: each element
/// is written at a front and a back cursor, only its side's cursor
/// advances, and the gap left between them is filled with the pivot.
///
/// Like Manticore's compiled code, which roots only live variables, the
/// sort clears each rope's root once the rope lives on elsewhere -- in
/// its partition, a spawned task, or a copy -- so global collections do
/// not copy dead ropes.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_WORKLOADS_QUICKSORT_H
#define MANTI_WORKLOADS_QUICKSORT_H

#include "runtime/Runtime.h"

#include <cstdint>

namespace manti::workloads {

struct QuicksortParams {
  int64_t NumElements = 100000;
  uint64_t Seed = 42;
  /// Below this size, sort sequentially.
  int64_t Cutoff = 4096;
};

struct QuicksortResult {
  bool Sorted = false;          ///< output verified non-decreasing
  uint64_t Checksum = 0;        ///< order-independent sum (must be preserved)
  int64_t Length = 0;
  double Seconds = 0.0;
};

/// Generates the input rope, sorts it in parallel, verifies, and reports.
/// Runs on \p VP (call from inside Runtime::run).
QuicksortResult runQuicksort(Runtime &RT, VProc &VP,
                             const QuicksortParams &P);

/// Sorts rope \p R of tagged int64 scalars; \returns the sorted rope.
Value quicksort(Runtime &RT, VProc &VP, Value R, int64_t Cutoff);

} // namespace manti::workloads

#endif // MANTI_WORKLOADS_QUICKSORT_H
