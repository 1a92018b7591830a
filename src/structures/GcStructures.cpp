//===- structures/GcStructures.cpp - GC-backed lock-free ordered sets -----===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "structures/GcStructures.h"

#include "support/Assert.h"

#include <climits>

namespace manti::structures {

namespace {

/// Word offsets of the CASed fields (static-probe measured once).
unsigned nextOff() {
  static const unsigned Off =
      detail::wordOffsetOf<GcSetNode, Value>(&GcSetNode::Next);
  return Off;
}
unsigned rightOff() {
  static const unsigned Off =
      detail::wordOffsetOf<GcIndexNode, Value>(&GcIndexNode::Right);
  return Off;
}

/// Atomic field accessors over heap words. Heap objects are 8-byte
/// aligned, so atomic_ref<Word> is always lock-free here.
Value loadField(Value Obj, unsigned WordOff) {
  return Value::fromBits(std::atomic_ref<Word>(Obj.asPtr()[WordOff])
                             .load(std::memory_order_acquire));
}
bool casField(Value Obj, unsigned WordOff, Value Expected, Value Desired) {
  Word Exp = Expected.bits();
  return std::atomic_ref<Word>(Obj.asPtr()[WordOff])
      .compare_exchange_strong(Exp, Desired.bits(), std::memory_order_acq_rel,
                               std::memory_order_acquire);
}
void storeField(Value Obj, unsigned WordOff, Value V) {
  std::atomic_ref<Word>(Obj.asPtr()[WordOff])
      .store(V.bits(), std::memory_order_release);
}

Value loadNext(Value Node) { return loadField(Node, nextOff()); }
bool casNext(Value Node, Value Expected, Value Desired) {
  return casField(Node, nextOff(), Expected, Desired);
}

/// Key/Marker are immutable after publication: plain typed reads.
int64_t keyOf(Value Node) {
  return ObjectType<GcSetNode>::get<&GcSetNode::Key>(Node);
}
bool isMarker(Value Node) {
  return ObjectType<GcSetNode>::get<&GcSetNode::Marker>(Node) != 0;
}
/// \returns true if \p Node is logically deleted (successor is a marker).
bool isDeleted(Value Node) {
  Value Succ = loadNext(Node);
  return !Succ.isNil() && isMarker(Succ);
}

/// A node plus its marker: what one successful unlink CAS retires.
constexpr std::size_t NodePairBytes = 2 * (sizeof(GcSetNode) + sizeof(Word));
constexpr std::size_t IndexNodeBytes = sizeof(GcIndexNode) + sizeof(Word);

/// Core traversal: from \p Start (a node with key < Key), position
/// \p Pred (key < Key) and \p Curr (Pred's successor: nil or the first
/// non-deleted node with key >= Key), physically unlinking any
/// {deleted node, marker} pair encountered. \returns false if a helping
/// CAS lost a race -- the caller restarts from its own entry point.
bool searchFrom(VProcHeap &H, GcReclaimer &R, Value Start, int64_t Key,
                Ref<GcSetNode> &Pred, Ref<GcSetNode> &Curr) {
  Pred = Start;
  Curr = loadNext(Start);
  // Start may die between the caller choosing it and this load (the
  // skiplist index checks target liveness, but cannot re-check at
  // hand-off). A deleted node's Next is its marker, and treating that
  // marker as a plain node would let Pred land on it -- and unlike a
  // real deleted node, a marker's Next has no marker of its own to
  // make stale CASes fail, so an insert could link a new node into an
  // already-detached chain and silently lose the key. Bounce back to
  // the caller for a fresh entry point instead.
  if (!Curr.isNil() && isMarker(Curr.value()))
    return false;
  for (;;) {
    if (Curr.isNil())
      return true;
    Value C = Curr.value();
    Value Succ = loadNext(C);
    if (!Succ.isNil() && isMarker(Succ)) {
      // C is logically deleted: swing Pred past C *and* its marker in
      // one CAS (the marker's Next is immutable).
      Value After = loadNext(Succ);
      if (!casNext(Pred.value(), C, After))
        return false;
      // The unlink dropped the only spine edge into C; feed it to the
      // deletion barrier so an in-flight snapshot cycle still traces
      // it (marking C covers the marker through C's Next).
      H.satbRecord(C);
      R.retire(H.id(), NodePairBytes);
      Curr = After;
      continue;
    }
    if (keyOf(C) >= Key)
      return true;
    Pred = C;
    Curr = Succ;
  }
}

/// Read-only membership walk from \p Start. Skips deleted nodes
/// logically; never CASes, never allocates, so no rooting is needed.
///
/// Unlike searchFrom, a deleted Start is tolerated: the walk then
/// begins at Start's marker, whose key is strictly below \p Key (the
/// index only hands out targets with smaller keys) and whose frozen
/// Next leads back into the at-deletion suffix, so the walk still
/// reaches every node that is present for the whole call -- any key it
/// misses was inserted after a detach inside the call window, which is
/// a valid linearization point for "absent".
bool containsFrom(Value Start, int64_t Key) {
  Value Curr = loadNext(Start);
  while (!Curr.isNil()) {
    Value Succ = loadNext(Curr);
    bool Deleted = !Succ.isNil() && isMarker(Succ);
    int64_t CK = keyOf(Curr);
    if (CK > Key)
      return false;
    if (CK == Key)
      return !Deleted;
    Curr = Deleted ? loadNext(Succ) : Succ;
  }
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// GcList
//===----------------------------------------------------------------------===//

GcList::GcList(VProcHeap &H, GcReclaimer &R) : Home(H), R(R) {
  GCWorld &W = H.world();
  if (!ObjectType<GcSetNode>::registeredIn(W))
    ObjectType<GcSetNode>::registerWith(W);
  {
    RootScope S(H);
    Ref<GcSetNode> HeadNode =
        alloc<GcSetNode>(S, GcSetNode{Value::nil(), INT64_MIN, 0});
    promoteInPlace(S, HeadNode);
    Head = HeadNode.value();
  }
  // Root the head slot for the structure's lifetime, independent of
  // whatever RootScopes open and close around the structure.
  Home.addLifetimeRoot(&Head);
}

GcList::~GcList() { Home.removeLifetimeRoot(&Head); }

bool GcList::insert(VProcHeap &H, int64_t Key) {
  RootScope S(H);
  Ref<GcSetNode> Pred = S.rootAs<GcSetNode>(Value::nil());
  Ref<GcSetNode> Curr = S.rootAs<GcSetNode>(Value::nil());
  for (;;) {
    H.safePoint();
    if (!searchFrom(H, R, Head, Key, Pred, Curr))
      continue;
    if (!Curr.isNil() && keyOf(Curr.value()) == Key)
      return false;
    // Allocate and promote *before* linking: the global heap may not
    // point into a local nursery. Pred/Curr sit in rooted slots, so
    // any collection the allocation triggers rewrites them and the new
    // node's Next consistently; the CAS below always compares
    // like-with-like.
    Ref<GcSetNode> Node =
        alloc<GcSetNode>(S, GcSetNode{Curr.value(), Key, 0});
    promoteInPlace(S, Node);
    if (casNext(Pred.value(), Curr.value(), Node.value()))
      return true;
  }
}

bool GcList::erase(VProcHeap &H, int64_t Key) {
  RootScope S(H);
  Ref<GcSetNode> Pred = S.rootAs<GcSetNode>(Value::nil());
  Ref<GcSetNode> Curr = S.rootAs<GcSetNode>(Value::nil());
  Ref<GcSetNode> Succ = S.rootAs<GcSetNode>(Value::nil());
  for (;;) {
    H.safePoint();
    if (!searchFrom(H, R, Head, Key, Pred, Curr))
      continue;
    if (Curr.isNil() || keyOf(Curr.value()) != Key)
      return false;
    Succ = loadNext(Curr.value());
    if (!Succ.isNil() && isMarker(Succ.value()))
      continue; // concurrently deleted; re-search reports absence
    // Logical delete: interpose a marker after Curr. Once Curr's Next
    // is a marker, every stale-successor CAS on Curr fails, which is
    // the whole point of the marker scheme.
    Ref<GcSetNode> Marker =
        alloc<GcSetNode>(S, GcSetNode{Succ.value(), Key, 1});
    promoteInPlace(S, Marker);
    if (!casNext(Curr.value(), Succ.value(), Marker.value()))
      continue; // successor changed or Curr got deleted first
    // Best-effort physical unlink; losers leave it to the next search.
    if (casNext(Pred.value(), Curr.value(), Succ.value())) {
      H.satbRecord(Curr.value());
      R.retire(H.id(), NodePairBytes);
    }
    return true;
  }
}

bool GcList::contains(VProcHeap &H, int64_t Key) const {
  H.safePoint();
  return containsFrom(Head, Key);
}

std::vector<int64_t> GcList::keys() const {
  std::vector<int64_t> Out;
  Value Curr = loadNext(Head);
  while (!Curr.isNil()) {
    Value Succ = loadNext(Curr);
    bool Deleted = !Succ.isNil() && isMarker(Succ);
    if (!Deleted) {
      Out.push_back(keyOf(Curr));
      Curr = Succ;
    } else {
      Curr = loadNext(Succ);
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// GcSkipList
//===----------------------------------------------------------------------===//

GcSkipList::GcSkipList(VProcHeap &H, GcReclaimer &R)
    : Home(H), R(R), Base(H, R) {
  GCWorld &W = H.world();
  if (!ObjectType<GcIndexNode>::registeredIn(W))
    ObjectType<GcIndexNode>::registerWith(W);
  {
    // Head tower: one index node per level, chained by Down, all
    // targeting the base sentinel. Built locally then promoted in one
    // graph; only the top needs a long-lived root.
    RootScope S(H);
    Ref<GcSetNode> BaseHead = S.rootAs<GcSetNode>(Base.Head);
    Ref<GcIndexNode> Tower = S.rootAs<GcIndexNode>(Value::nil());
    for (int64_t Level = 1; Level <= MaxIndexLevels; ++Level) {
      Ref<GcIndexNode> Idx = alloc<GcIndexNode>(
          S, GcIndexNode{Value::nil(), Tower.value(), BaseHead.value(), Level});
      Tower = Idx.value();
    }
    promoteInPlace(S, Tower);
    IndexHead = Tower.value();
  }
  Home.addLifetimeRoot(&IndexHead);
}

GcSkipList::~GcSkipList() { Home.removeLifetimeRoot(&IndexHead); }

Value GcSkipList::indexSearch(VProcHeap &H, int64_t Key) const {
restart:
  Value Q = IndexHead;
  for (;;) {
    Value Right = loadField(Q, rightOff());
    if (!Right.isNil()) {
      Value Target = ObjectType<GcIndexNode>::get<&GcIndexNode::Target>(Right);
      if (isDeleted(Target)) {
        // Dead tower cell: unlink it so the index converges back to
        // the live key set.
        if (!casField(Q, rightOff(), Right, loadField(Right, rightOff())))
          goto restart;
        H.satbRecord(Right);
        R.retire(H.id(), IndexNodeBytes);
        continue;
      }
      if (keyOf(Target) < Key) {
        Q = Right;
        continue;
      }
    }
    Value Down = ObjectType<GcIndexNode>::get<&GcIndexNode::Down>(Q);
    if (Down.isNil())
      return ObjectType<GcIndexNode>::get<&GcIndexNode::Target>(Q);
    Q = Down;
  }
}

void GcSkipList::findSpliceSpot(VProcHeap &H, int64_t Key, int64_t Level,
                                Value &OutQ, Value &OutR) const {
restart:
  Value Q = IndexHead;
  while (ObjectType<GcIndexNode>::get<&GcIndexNode::Level>(Q) > Level)
    Q = ObjectType<GcIndexNode>::get<&GcIndexNode::Down>(Q);
  for (;;) {
    Value Right = loadField(Q, rightOff());
    if (!Right.isNil()) {
      Value Target = ObjectType<GcIndexNode>::get<&GcIndexNode::Target>(Right);
      if (isDeleted(Target)) {
        if (!casField(Q, rightOff(), Right, loadField(Right, rightOff())))
          goto restart;
        H.satbRecord(Right);
        R.retire(H.id(), IndexNodeBytes);
        continue;
      }
      if (keyOf(Target) < Key) {
        Q = Right;
        continue;
      }
    }
    OutQ = Q;
    OutR = Right;
    return;
  }
}

int GcSkipList::randomLevels() {
  // splitmix64 over a shared counter: wait-free and thread-safe draws.
  uint64_t Z = Rng.fetch_add(0x9E3779B97F4A7C15ull, std::memory_order_relaxed);
  Z ^= Z >> 30;
  Z *= 0xBF58476D1CE4E5B9ull;
  Z ^= Z >> 27;
  Z *= 0x94D049BB133111EBull;
  Z ^= Z >> 31;
  int Levels = 0;
  while ((Z & 1) && Levels < MaxIndexLevels) {
    ++Levels;
    Z >>= 1;
  }
  return Levels;
}

void GcSkipList::buildIndex(VProcHeap &H, RootScope &S,
                            Ref<GcSetNode> &BaseNode, int64_t Key) {
  int Levels = randomLevels();
  if (Levels == 0)
    return;
  // Build the tower bottom-up as one local graph, promote once.
  Ref<GcIndexNode> Tower = S.rootAs<GcIndexNode>(Value::nil());
  for (int64_t Level = 1; Level <= Levels; ++Level) {
    Ref<GcIndexNode> Idx = alloc<GcIndexNode>(
        S, GcIndexNode{Value::nil(), Tower.value(), BaseNode.value(), Level});
    Tower = Idx.value();
  }
  promoteInPlace(S, Tower);
  // From here on: raw traversal only, no allocation, so the collected
  // per-level addresses stay valid (global objects move only while the
  // world is stopped, and this thread does not safe-point below).
  Value PerLevel[MaxIndexLevels];
  Value Walk = Tower.value();
  for (int Level = Levels; Level >= 1; --Level) {
    PerLevel[Level - 1] = Walk;
    Walk = ObjectType<GcIndexNode>::get<&GcIndexNode::Down>(Walk);
  }
  // Splice bottom-up; abandon if the base node dies (its spliced
  // levels are unlinked lazily like any dead tower).
  for (int64_t Level = 1; Level <= Levels; ++Level) {
    Value Idx = PerLevel[Level - 1];
    for (;;) {
      if (isDeleted(BaseNode.value()))
        return;
      Value Q, Right;
      findSpliceSpot(H, Key, Level, Q, Right);
      storeField(Idx, rightOff(), Right); // pre-publish at this level
      if (casField(Q, rightOff(), Right, Idx))
        break;
    }
  }
}

bool GcSkipList::insert(VProcHeap &H, int64_t Key) {
  RootScope S(H);
  Ref<GcSetNode> Pred = S.rootAs<GcSetNode>(Value::nil());
  Ref<GcSetNode> Curr = S.rootAs<GcSetNode>(Value::nil());
  for (;;) {
    H.safePoint();
    if (!searchFrom(H, R, indexSearch(H, Key), Key, Pred, Curr))
      continue;
    if (!Curr.isNil() && keyOf(Curr.value()) == Key)
      return false;
    Ref<GcSetNode> Node =
        alloc<GcSetNode>(S, GcSetNode{Curr.value(), Key, 0});
    promoteInPlace(S, Node);
    if (casNext(Pred.value(), Curr.value(), Node.value())) {
      buildIndex(H, S, Node, Key);
      return true;
    }
  }
}

bool GcSkipList::erase(VProcHeap &H, int64_t Key) {
  RootScope S(H);
  Ref<GcSetNode> Pred = S.rootAs<GcSetNode>(Value::nil());
  Ref<GcSetNode> Curr = S.rootAs<GcSetNode>(Value::nil());
  Ref<GcSetNode> Succ = S.rootAs<GcSetNode>(Value::nil());
  for (;;) {
    H.safePoint();
    if (!searchFrom(H, R, indexSearch(H, Key), Key, Pred, Curr))
      continue;
    if (Curr.isNil() || keyOf(Curr.value()) != Key)
      return false;
    Succ = loadNext(Curr.value());
    if (!Succ.isNil() && isMarker(Succ.value()))
      continue;
    Ref<GcSetNode> Marker =
        alloc<GcSetNode>(S, GcSetNode{Succ.value(), Key, 1});
    promoteInPlace(S, Marker);
    if (!casNext(Curr.value(), Succ.value(), Marker.value()))
      continue;
    if (casNext(Pred.value(), Curr.value(), Succ.value())) {
      H.satbRecord(Curr.value());
      R.retire(H.id(), NodePairBytes);
    }
    // Sweep the dead tower's index cells out of the way now rather
    // than leaving them all to later traversals.
    indexSearch(H, Key);
    return true;
  }
}

bool GcSkipList::contains(VProcHeap &H, int64_t Key) const {
  H.safePoint();
  return containsFrom(indexSearch(H, Key), Key);
}

} // namespace manti::structures
