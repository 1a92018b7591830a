//===- structures/GcStructures.h - GC-backed lock-free ordered sets -------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lock-free ordered integer sets whose nodes are runtime heap objects:
/// a Harris-style linked list and a ConcurrentSkipListMap-style skiplist
/// layered on it. These are the collector's adversarial mutators --
/// genuinely shared, contended object graphs rewired by CAS while
/// concurrent marking, promotion, and copying collections run.
///
/// Design notes:
///
///  * Logical deletion uses *marker nodes*, not pointer tag bits: the
///    value representation steals bit 0 for tagged ints, so a tagged
///    field in a scanned object would be misread by the collector. A
///    node is deleted iff its Next points at a node with Marker == 1
///    (Java's ConcurrentSkipListMap plays the same trick for the same
///    "no spare bits" reason). The marker's own Next is the deleted
///    node's old successor and is immutable, so unlinking is a single
///    CAS of the predecessor's Next past both.
///
///  * Node fields are read/CASed through std::atomic_ref on the
///    underlying heap words. Nodes are promoted to the global heap
///    *before* they are linked (the heap invariant forbids global ->
///    local edges), and global objects only move while the world is
///    stopped, so a CAS expected-value read from a rooted handle slot
///    can never be silently invalidated mid-operation.
///
///  * Every successful CAS that drops a node from the reachable spine
///    reports the dropped value to the SATB deletion barrier
///    (VProcHeap::satbRecord), keeping snapshot-at-the-beginning
///    concurrent cycles sound under concurrent unlinking.
///
///  * The structure head slots are lifetime roots of the constructing
///    vproc (VProcHeap::addLifetimeRoot), so collections treat the whole
///    set as rooted whatever RootScopes open and close around it.
///    Construct and destroy on that vproc's thread while it is quiescent.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_STRUCTURES_GCSTRUCTURES_H
#define MANTI_STRUCTURES_GCSTRUCTURES_H

#include "gc/Handles.h"
#include "structures/Reclaimer.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace manti::structures {

/// One list cell: an ordinary typed heap object. Marker == 1 flags the
/// marker nodes interposed by deletion; Key on a marker is the deleted
/// node's key (debugging aid only).
struct GcSetNode {
  Value Next;
  int64_t Key;
  int64_t Marker;
  static constexpr const char *GcName = "lf-set-node";
  static constexpr auto GcPtrFields = ptrFields(&GcSetNode::Next);
};

/// Skiplist index cell: Right chains an index level, Down descends one
/// level (nil at level 1), Target is the base-list node the tower
/// belongs to.
struct GcIndexNode {
  Value Right;
  Value Down;
  Value Target;
  int64_t Level;
  static constexpr const char *GcName = "lf-skip-index";
  static constexpr auto GcPtrFields =
      ptrFields(&GcIndexNode::Right, &GcIndexNode::Down, &GcIndexNode::Target);
};

/// Harris-style lock-free sorted linked-list set over int64 keys.
class GcList {
public:
  /// Registers the node type with \p H's world if needed, allocates the
  /// head sentinel in the global heap, and roots it on \p H's shadow
  /// stack. Run on \p H's vproc thread before concurrent use.
  GcList(VProcHeap &H, GcReclaimer &R);
  ~GcList();

  GcList(const GcList &) = delete;
  GcList &operator=(const GcList &) = delete;

  /// \returns true if \p Key was absent and is now present. Callable
  /// from any vproc thread, concurrently.
  bool insert(VProcHeap &H, int64_t Key);
  /// \returns true if \p Key was present and is now absent.
  bool erase(VProcHeap &H, int64_t Key);
  /// Read-only, allocation-free membership test.
  bool contains(VProcHeap &H, int64_t Key) const;

  /// Snapshot of the live keys in order. Only meaningful while no other
  /// thread is mutating (tests and teardown).
  std::vector<int64_t> keys() const;

  GcReclaimer &reclaimer() { return R; }

private:
  friend class GcSkipList;

  VProcHeap &Home;
  GcReclaimer &R;
  /// Rooted head-sentinel slot. Ops read it plainly: it is written only
  /// at construction and by world-stopped collections.
  Value Head = Value::nil();
};

/// Lock-free skiplist set: a GcList base level plus a lazily-repaired
/// index built from GcIndexNode towers (the ConcurrentSkipListMap
/// shape). The index is an accelerator only -- correctness lives
/// entirely in the base list, and index nodes whose base node has been
/// deleted are unlinked by whichever traversal next walks past them.
class GcSkipList {
public:
  GcSkipList(VProcHeap &H, GcReclaimer &R);
  ~GcSkipList();

  GcSkipList(const GcSkipList &) = delete;
  GcSkipList &operator=(const GcSkipList &) = delete;

  bool insert(VProcHeap &H, int64_t Key);
  bool erase(VProcHeap &H, int64_t Key);
  bool contains(VProcHeap &H, int64_t Key) const;

  /// Quiescent-only ordered key snapshot (base-level walk).
  std::vector<int64_t> keys() const { return Base.keys(); }

  GcReclaimer &reclaimer() { return R; }

  /// Index height is fixed at construction: growing the head tower
  /// concurrently would mean CASing a rooted slot, which the copying
  /// collector may rewrite. 2^10 expected keys per index level is ample
  /// for the bench's key ranges.
  static constexpr int MaxIndexLevels = 10;

private:
  /// Descends the index helping unlink dead index nodes; \returns the
  /// base-list node (key < Key) to start the base search from.
  /// Allocation-free.
  Value indexSearch(VProcHeap &H, int64_t Key) const;
  /// Positions the level-\p Level splice point for \p Key: \p OutQ is
  /// the index node to link after, \p OutR its current Right.
  void findSpliceSpot(VProcHeap &H, int64_t Key, int64_t Level, Value &OutQ,
                      Value &OutR) const;
  /// Builds and splices an index tower over freshly inserted \p BaseNode.
  void buildIndex(VProcHeap &H, RootScope &S, Ref<GcSetNode> &BaseNode,
                  int64_t Key);
  int randomLevels();

  VProcHeap &Home;
  GcReclaimer &R;
  GcList Base;
  /// Rooted slot for the top-level head index node; the rest of the
  /// head tower hangs off its Down chain.
  Value IndexHead = Value::nil();
  mutable std::atomic<uint64_t> Rng{0x9E3779B97F4A7C15ull};
};

} // namespace manti::structures

#endif // MANTI_STRUCTURES_GCSTRUCTURES_H
