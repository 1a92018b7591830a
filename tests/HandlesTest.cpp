//===- tests/HandlesTest.cpp - typed RAII-rooted handle API tests ---------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the mutator-facing handle layer (gc/Handles.h): handle
/// survival across forced minor/major/global collections with StressGC
/// enabled (a minor collection on *every* allocation), typed field
/// access after promotion, and ObjectType descriptor registration
/// round-trips against the ObjectDescriptorTest expectations.
///
//===----------------------------------------------------------------------===//

#include "GCTestUtils.h"
#include "gc/Handles.h"
#include "gc/HeapVerifier.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

using namespace manti;
using namespace manti::test;

namespace {

/// A small typed object: two scanned fields flanking raw fields, so the
/// descriptor's offset list is non-trivial ({0, 2}).
struct PairNode {
  Value First;
  int64_t Tag;
  Value Second;
  double Weight;
  static constexpr const char *GcName = "handles-pair";
  static constexpr auto GcPtrFields =
      ptrFields(&PairNode::First, &PairNode::Second);
};

/// Raw-only typed object (no scanned fields).
struct Stamp {
  int64_t A;
  int64_t B;
  static constexpr const char *GcName = "handles-stamp";
  static constexpr auto GcPtrFields = ptrFields();
};

GCConfig stressConfig() {
  GCConfig Cfg = smallConfig();
  Cfg.StressGC = true; // minor collection on every eligible allocation
  return Cfg;
}

struct HandleWorld : TestWorld {
  explicit HandleWorld(GCConfig Cfg = stressConfig()) : TestWorld(1, Cfg) {
    ObjectType<PairNode>::registerWith(World);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Compile-time surface: the footguns the redesign retires must not
// compile. These are satellite guarantees, checked as type traits.
//===----------------------------------------------------------------------===//

// A temporary handle must not decay into an unrooted Value...
static_assert(!std::is_convertible_v<Ref<Object>, Value>,
              "rvalue Ref -> Value snapshot must not compile");
// ...but a named (lvalue) handle may be snapshotted deliberately.
static_assert(std::is_convertible_v<Ref<Object> &, Value>,
              "lvalue Ref -> Value interop must stay available");
// Handles cannot be copied out of their scope.
static_assert(!std::is_copy_constructible_v<Ref<Object>> &&
                  !std::is_copy_assignable_v<Ref<Object>>,
              "handles are non-copyable");
static_assert(std::is_move_constructible_v<Ref<Object>>,
              "handles are movable within their scope");
//===----------------------------------------------------------------------===//
// ObjectType registration round-trips (ObjectDescriptorTest parity)
//===----------------------------------------------------------------------===//

TEST(ObjectTypeDSL, RegistrationMatchesDescriptorTable) {
  TestWorld TW;
  uint16_t Id = ObjectType<PairNode>::registerWith(TW.World);
  EXPECT_EQ(Id, FirstMixedId) << "first registration takes the first id";
  EXPECT_EQ(ObjectType<PairNode>::idIn(TW.World), Id);

  const ObjectDescriptor &D = TW.World.descriptors().lookup(Id);
  EXPECT_EQ(D.name(), "handles-pair");
  EXPECT_EQ(D.id(), Id);
  EXPECT_EQ(D.sizeWords(), 4u) << "four 8-byte members";
  EXPECT_EQ(D.numPtrFields(), 2u);
  EXPECT_EQ(D.ptrOffsets()[0], 0u);
  EXPECT_EQ(D.ptrOffsets()[1], 2u) << "Second sits after the raw Tag";
}

TEST(ObjectTypeDSL, RawOnlyTypeHasNoPtrFields) {
  TestWorld TW;
  uint16_t Id = ObjectType<Stamp>::registerWith(TW.World);
  const ObjectDescriptor &D = TW.World.descriptors().lookup(Id);
  EXPECT_EQ(D.sizeWords(), 2u);
  EXPECT_EQ(D.numPtrFields(), 0u);
}

TEST(ObjectTypeDSL, ScanVisitsExactlyTheValueMembers) {
  TestWorld TW;
  RootScope S(TW.heap());
  ObjectType<PairNode>::registerWith(TW.World);
  Ref<PairNode> P = alloc<PairNode>(
      S, PairNode{Value::fromInt(1), 7, Value::fromInt(2), 0.5});

  // Mirror ObjectDescriptorTest's scannedOffsets helper on a real
  // handle-allocated object.
  const ObjectDescriptor &D =
      TW.World.descriptors().lookup(ObjectType<PairNode>::idIn(TW.World));
  std::vector<unsigned> Offsets;
  struct Ctx {
    Word *Obj;
    std::vector<unsigned> *Out;
  } C{P.value().asPtr(), &Offsets};
  D.scan(
      C.Obj,
      [](Word *Slot, void *CtxPtr) {
        auto *C = static_cast<Ctx *>(CtxPtr);
        C->Out->push_back(static_cast<unsigned>(Slot - C->Obj));
      },
      &C);
  EXPECT_EQ(Offsets, (std::vector<unsigned>{0, 2}));
}

TEST(ObjectTypeDSL, PerWorldIds) {
  TestWorld A, B;
  ObjectType<Stamp>::registerWith(A.World);
  uint16_t IdA = ObjectType<Stamp>::idIn(A.World);
  EXPECT_FALSE(ObjectType<Stamp>::registeredIn(B.World))
      << "ids are world state, not globals";
  // Register something else first in B: the same C++ type may have a
  // different id in a different world.
  ObjectType<PairNode>::registerWith(B.World);
  ObjectType<Stamp>::registerWith(B.World);
  EXPECT_NE(ObjectType<Stamp>::idIn(B.World), IdA);
}

TEST(ObjectTypeDSL, IsInstance) {
  HandleWorld TW;
  RootScope S(TW.heap());
  Ref<PairNode> P =
      alloc<PairNode>(S, PairNode{Value::nil(), 0, Value::nil(), 0.0});
  EXPECT_TRUE(ObjectType<PairNode>::isInstance(TW.World, P.value()));
  Ref<> Vec = allocVectorOf(S, Value::fromInt(1));
  EXPECT_FALSE(ObjectType<PairNode>::isInstance(TW.World, Vec.value()));
}

//===----------------------------------------------------------------------===//
// Handle survival under StressGC (a collection on every allocation)
//===----------------------------------------------------------------------===//

TEST(HandlesStress, ListSurvivesPerAllocationCollections) {
  HandleWorld TW;
  VProcHeap &H = TW.heap();
  RootScope S(H);
  Ref<> List = S.root(Value::nil());
  // Every cons triggers a minor collection; the handle must track the
  // list through all of them.
  for (int64_t I = 0; I < 300; ++I)
    List = cons(H, Value::fromInt(I), List);
  EXPECT_EQ(listLength(List), 300);
  EXPECT_EQ(listSum(List), intListSum(300));
  VerifyResult R = verifyHeap(H);
  EXPECT_GT(R.LocalObjects + R.GlobalObjects, 0u);
}

TEST(HandlesStress, AllocRootsItsPointerArguments) {
  HandleWorld TW;
  RootScope S(TW.heap());
  Ref<> A = S.root(makeIntList(TW.heap(), 20));
  Ref<> B = S.root(makeIntList(TW.heap(), 10));
  // The allocation below forces a minor collection (StressGC) that moves
  // A's and B's referents; alloc must re-read the rooted slots when
  // initializing the new object's pointer fields.
  Ref<PairNode> P = alloc<PairNode>(S, PairNode{A, 42, B, 2.5});
  EXPECT_EQ(listSum(P.get<&PairNode::First>()), intListSum(20));
  EXPECT_EQ(listSum(P.get<&PairNode::Second>()), intListSum(10));
  EXPECT_EQ(P.get<&PairNode::Tag>(), 42);
  EXPECT_DOUBLE_EQ(P.get<&PairNode::Weight>(), 2.5);
}

TEST(HandlesStress, SurvivesForcedMinorMajorGlobal) {
  HandleWorld TW;
  VProcHeap &H = TW.heap();
  RootScope S(H);
  Ref<> List = S.root(makeIntList(H, 150));
  Ref<PairNode> P = alloc<PairNode>(S, PairNode{List, 1, List, 0.0});

  H.minorGC();
  EXPECT_EQ(listSum(List), intListSum(150));
  EXPECT_EQ(listSum(P.get<&PairNode::First>()), intListSum(150));

  H.majorGC();
  H.majorGC(); // age everything into the global heap
  EXPECT_EQ(listSum(List), intListSum(150));
  EXPECT_EQ(listSum(P.get<&PairNode::Second>()), intListSum(150));

  // Global collection: make global garbage, then collect it.
  for (int I = 0; I < 20; ++I) {
    RootScope Junk(H);
    Ref<> Dead = Junk.root(makeIntList(H, 200));
    promote(Junk, Dead);
  }
  TW.World.requestGlobalGC();
  H.safePoint();
  EXPECT_EQ(listSum(List), intListSum(150));
  EXPECT_EQ(listSum(P.get<&PairNode::First>()), intListSum(150));
  VerifyResult R = verifyHeap(H);
  EXPECT_GT(R.GlobalObjects, 0u);
}

TEST(HandlesStress, VectorOfRootsItsElements) {
  HandleWorld TW;
  RootScope S(TW.heap());
  Ref<> A = S.root(makeIntList(TW.heap(), 12));
  // allocVectorOf roots A across the stress collection it triggers.
  Ref<> Vec = allocVectorOf(S, Value::fromInt(5), A);
  EXPECT_EQ(vectorGet(Vec, 0).asInt(), 5);
  EXPECT_EQ(listSum(vectorGet(Vec, 1)), intListSum(12));
}

//===----------------------------------------------------------------------===//
// Typed field access after promotion
//===----------------------------------------------------------------------===//

TEST(Handles, TypedAccessAfterPromotion) {
  HandleWorld TW;
  VProcHeap &H = TW.heap();
  RootScope S(H);
  Ref<> Inner = S.root(makeIntList(H, 30));
  Ref<PairNode> Local =
      alloc<PairNode>(S, PairNode{Inner, 9, Value::fromInt(-3), 1.25});
  ASSERT_TRUE(isLocalTo(H, Local.value()));

  Ref<PairNode> Global = promote(S, Local);
  EXPECT_TRUE(isGlobal(TW.World, Global.value()));
  EXPECT_EQ(listSum(Global.get<&PairNode::First>()), intListSum(30));
  EXPECT_EQ(Global.get<&PairNode::Second>().asInt(), -3);
  EXPECT_EQ(Global.get<&PairNode::Tag>(), 9);
  EXPECT_DOUBLE_EQ(Global.get<&PairNode::Weight>(), 1.25);
  // The promoted copy's scanned fields must themselves be global (the
  // no-global-to-local-pointer invariant).
  EXPECT_TRUE(isGlobal(TW.World, Global.get<&PairNode::First>()));

  // In-place promotion updates the handle's own slot.
  Ref<PairNode> Again =
      alloc<PairNode>(S, PairNode{Inner, 11, Value::nil(), 0.0});
  promoteInPlace(S, Again);
  EXPECT_TRUE(isGlobal(TW.World, Again.value()));
  EXPECT_EQ(Again.get<&PairNode::Tag>(), 11);
}

TEST(Handles, RootAsChecksTheObjectType) {
  HandleWorld TW;
  RootScope S(TW.heap());
  Ref<PairNode> P =
      alloc<PairNode>(S, PairNode{Value::nil(), 3, Value::nil(), 0.0});
  // Round-trip through an untyped handle and back.
  Ref<> Untyped = S.root(P.value());
  Ref<PairNode> Back = S.rootAs<PairNode>(Untyped.value());
  EXPECT_EQ(Back.get<&PairNode::Tag>(), 3);
  // nil is an instance of every type.
  Ref<PairNode> Nil = S.rootAs<PairNode>(Value::nil());
  EXPECT_TRUE(Nil.isNil());
}

TEST(HandlesDeath, RootAsWrongTypeAborts) {
  HandleWorld TW;
  RootScope S(TW.heap());
  Ref<> Vec = allocVectorOf(S, Value::fromInt(1));
  EXPECT_DEATH(S.rootAs<PairNode>(Vec.value()), "not an instance");
}

//===----------------------------------------------------------------------===//
// RootScope mechanics and the StressGC shadow-stack check
//===----------------------------------------------------------------------===//

TEST(Handles, ScopesPopTheirSlots) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  std::size_t Before = H.numRegisteredRootSlots();
  {
    RootScope Outer(H);
    Outer.root(Value::fromInt(1));
    {
      RootScope Inner(H);
      Inner.root(Value::fromInt(2));
      Inner.root(Value::fromInt(3));
      EXPECT_EQ(H.numRegisteredRootSlots(), Before + 3);
      EXPECT_EQ(Inner.numSlots(), 2u);
    }
    EXPECT_EQ(H.numRegisteredRootSlots(), Before + 1);
  }
  EXPECT_EQ(H.numRegisteredRootSlots(), Before);
}

TEST(Handles, SlabGrowthAcrossNestedScopes) {
  // Scopes store their slots in fixed-capacity slabs (one inline,
  // overflow slabs chained on demand). Deeply nested scopes that each
  // overflow their inline slab must keep every level's registration
  // count exact -- and drop back to it level by level as the scopes
  // unwind, returning overflow slabs to the heap's recycling list.
  HandleWorld TW; // StressGC: every allocation collects
  VProcHeap &H = TW.heap();
  constexpr std::size_t PerScope = 3 * RootSlab::Capacity + 5;
  std::size_t Before = H.numRegisteredRootSlots();

  RootScope S1(H);
  for (std::size_t I = 0; I < PerScope; ++I)
    S1.root(cons(H, Value::fromInt(static_cast<int64_t>(I)), Value::nil()));
  EXPECT_EQ(S1.numSlots(), PerScope);
  EXPECT_EQ(H.numRegisteredRootSlots(), Before + PerScope);
  {
    RootScope S2(H);
    for (std::size_t I = 0; I < PerScope; ++I)
      S2.root(Value::fromInt(static_cast<int64_t>(I)));
    EXPECT_EQ(H.numRegisteredRootSlots(), Before + 2 * PerScope);
    {
      RootScope S3(H);
      for (std::size_t I = 0; I < PerScope; ++I)
        S3.root(makeIntList(H, 3));
      EXPECT_EQ(H.numRegisteredRootSlots(), Before + 3 * PerScope);
    }
    EXPECT_EQ(H.numRegisteredRootSlots(), Before + 2 * PerScope);
  }
  EXPECT_EQ(H.numRegisteredRootSlots(), Before + PerScope);
  // Everything the outer scope rooted survived the inner scopes' stress
  // collections (all of which enumerated the slab slots as roots).
  H.minorGC();
  H.majorGC();
  verifyHeap(H);
}

TEST(Handles, HandleStabilityWhileSlabsGrow) {
  // Growing a scope past its slab capacity chains *new* slabs; slots
  // already handed out must not move (Ref::slotAddr stays valid), unlike
  // a vector-backed design where growth reallocates.
  HandleWorld TW;
  VProcHeap &H = TW.heap();
  RootScope S(H);
  Ref<> Early = S.root(makeIntList(H, 7));
  Value *EarlyAddr = Early.slotAddr();
  std::vector<Value *> Addrs;
  std::vector<Ref<>> Held;
  Held.reserve(4 * RootSlab::Capacity);
  for (std::size_t I = 0; I < 4 * RootSlab::Capacity; ++I) {
    Held.push_back(S.root(cons(H, Value::fromInt(static_cast<int64_t>(I)),
                               Value::nil())));
    Addrs.push_back(Held.back().slotAddr());
  }
  EXPECT_EQ(Early.slotAddr(), EarlyAddr)
      << "slab growth must not move existing slots";
  for (std::size_t I = 0; I < Held.size(); ++I)
    EXPECT_EQ(Held[I].slotAddr(), Addrs[I]);
  // The slots are still registered and forwarded: collections move the
  // referents, the slots keep tracking them.
  H.minorGC();
  H.majorGC();
  EXPECT_EQ(listSum(Early), intListSum(7));
  for (std::size_t I = 0; I < Held.size(); ++I)
    EXPECT_EQ(vectorGet(Held[I], 0).asInt(), static_cast<int64_t>(I));
}

TEST(Handles, SwapExchangesValuesNotSlots) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope S(H);
  Ref<> A = S.root(Value::fromInt(1));
  Ref<> B = S.root(Value::fromInt(2));
  Value *SlotA = A.slotAddr(), *SlotB = B.slotAddr();
  using std::swap;
  swap(A, B); // ADL picks the value-swapping overload
  EXPECT_EQ(A.asInt(), 2);
  EXPECT_EQ(B.asInt(), 1);
  EXPECT_EQ(A.slotAddr(), SlotA);
  EXPECT_EQ(B.slotAddr(), SlotB);
}

TEST(Handles, MoveAssignOverwritesTheSlotInPlace) {
  TestWorld TW;
  VProcHeap &H = TW.heap();
  RootScope S(H);
  Ref<> A = S.root(Value::fromInt(1));
  Value *SlotA = A.slotAddr();
  A = S.root(Value::fromInt(2));
  EXPECT_EQ(A.slotAddr(), SlotA) << "assignment keeps the original slot";
  EXPECT_EQ(A.asInt(), 2);
}

TEST(HandlesDeath, StressGCCatchesStaleShadowSlot) {
  HandleWorld TW;
  VProcHeap &H = TW.heap();
  RootScope S(H);
  Ref<> Rooted = S.root(makeIntList(H, 5));
  // Deliberately capture an unrooted snapshot, let a collection move the
  // list, then register the stale copy: exactly the bug the old API
  // invited. The next allocation's shadow-stack sweep must abort.
  Value Stale = Rooted.value();
  H.minorGC();
  ASSERT_NE(Stale.bits(), Rooted.value().bits()) << "the list must move";
  S.slot(Stale);
  EXPECT_DEATH(H.allocRaw(nullptr, 8), "unrooted or stale");
}

TEST(Handles, EnvironmentVariableEnablesStress) {
  // GCConfig::StressGC is also driven by MANTI_STRESS_GC so CI can run
  // unmodified test binaries in stress mode.
  GCConfig Cfg = smallConfig();
  EXPECT_FALSE(Cfg.StressGC);
  const char *Prev = getenv("MANTI_STRESS_GC");
  std::string Saved = Prev ? Prev : "";
  setenv("MANTI_STRESS_GC", "1", 1);
  TestWorld TW(1, Cfg);
  // Restore rather than unset: in the CI stress job the variable is set
  // process-wide, and dropping it here would silently de-stress every
  // world a later test constructs.
  if (Prev)
    setenv("MANTI_STRESS_GC", Saved.c_str(), 1);
  else
    unsetenv("MANTI_STRESS_GC");
  EXPECT_TRUE(TW.World.config().StressGC);
}

TEST(Handles, VectorOfLeavesTheShadowStackConsistent) {
  // Regression: allocVectorOf's temporary element roots must be popped
  // before the result is rooted, or a dangling stack-array slot stays
  // registered after the call returns.
  HandleWorld TW;
  VProcHeap &H = TW.heap();
  RootScope S(H);
  Ref<> Leaf = S.root(makeIntList(H, 4));
  std::size_t RegisteredBefore = H.numRegisteredRootSlots();
  std::size_t SlotsBefore = S.numSlots();
  Ref<> Pair = allocVectorOf(S, Value::fromInt(1), Leaf);
  ASSERT_EQ(H.numRegisteredRootSlots(), RegisteredBefore + 1)
      << "the temporary element roots must all be deregistered";
  ASSERT_EQ(S.numSlots(), SlotsBefore + 1)
      << "exactly the result handle's slot must remain";
  // The README's workload pattern: keep allocating in the same scope.
  // Under StressGC this collects, checking every registered root; a
  // leftover dangling registration would abort (or corrupt) here.
  Ref<> More = S.root(makeIntList(H, 8));
  EXPECT_EQ(listSum(More), intListSum(8));
  EXPECT_EQ(listSum(vectorGet(Pair, 1)), intListSum(4));
  EXPECT_EQ(vectorGet(Pair, 0).asInt(), 1);
}

//===----------------------------------------------------------------------===//
// VecRef<T>: the typed-vector face
//===----------------------------------------------------------------------===//

TEST(VecRef, TypedGetAndInit) {
  HandleWorld TW;
  VProcHeap &H = TW.heap();
  RootScope S(H);
  // init-then-publish construction through the typed face.
  VecRef<> V = allocVec(S, 3);
  V.init(0, Value::fromInt(7));
  V.init(1, Value::fromInt(8));
  V.init(2, Value::fromInt(9));
  EXPECT_EQ(V.size(), 3u);
  EXPECT_EQ(V.intAt(0), 7);
  EXPECT_EQ(V.at(2).asInt(), 9);
  // Static faces for raw-Value traversals.
  EXPECT_EQ(VecRef<>::getInt(V, 1), 8);
  EXPECT_TRUE(VecRef<>::get(V, 2).isInt());
}

TEST(VecRef, TypedElementReadIsChecked) {
  HandleWorld TW;
  VProcHeap &H = TW.heap();
  RootScope S(H);
  Ref<PairNode> P =
      alloc<PairNode>(S, PairNode{Value::nil(), 5, Value::nil(), 0.5});
  Ref<> Vec = allocVectorOf(S, P);
  VecRef<PairNode> V = S.rootVector<PairNode>(Vec.value());
  Ref<PairNode> Elem = V.get(S, 0);
  EXPECT_EQ(Elem.get<&PairNode::Tag>(), 5);
}

TEST(VecRef, TraversalSlotSurvivesCollections) {
  // The cons-list traversal pattern: one rooted VecRef walked down the
  // list with `Cell = Cell.at(1)`. Under StressGC every allocation
  // collects, so the slot is being forwarded while the list is built
  // and while it is traversed.
  HandleWorld TW;
  VProcHeap &H = TW.heap();
  RootScope S(H);
  Ref<> List = S.root(makeIntList(H, 20));
  H.minorGC(); // move the list at least once
  int64_t Sum = 0;
  VecRef<> Cell = S.rootVector(List.value());
  for (; !Cell.isNil(); Cell = Cell.at(1))
    Sum += Cell.intAt(0);
  EXPECT_EQ(Sum, intListSum(20));
  // Allocate mid-traversal too: the rooted slot must be forwarded.
  Sum = 0;
  Cell = List.value();
  for (; !Cell.isNil(); Cell = Cell.at(1)) {
    Sum += Cell.intAt(0);
    Ref<> Junk = S.root(makeIntList(H, 2)); // collects under stress
    (void)Junk;
  }
  EXPECT_EQ(Sum, intListSum(20));
}

TEST(VecRef, SwapExchangesValuesNotSlots) {
  // Pins the same move-semantics invariant Ref guards: the ADL swap
  // must exchange the slots' *values*; generic std::swap would
  // mis-compose the aliasing move-ctor with the value-copying
  // move-assign and drop one value.
  HandleWorld TW;
  VProcHeap &H = TW.heap();
  RootScope S(H);
  VecRef<> A = allocVec(S, 1, Value::fromInt(1));
  VecRef<> B = allocVec(S, 1, Value::fromInt(2));
  Value *SlotA = A.slotAddr(), *SlotB = B.slotAddr();
  using std::swap;
  swap(A, B);
  EXPECT_EQ(A.intAt(0), 2);
  EXPECT_EQ(B.intAt(0), 1);
  EXPECT_EQ(A.slotAddr(), SlotA) << "swap exchanges values, not slots";
  EXPECT_EQ(B.slotAddr(), SlotB);
}

TEST(VecRefDeath, RootVectorRejectsNonVectors) {
  HandleWorld TW;
  VProcHeap &H = TW.heap();
  RootScope S(H);
  Ref<PairNode> P =
      alloc<PairNode>(S, PairNode{Value::nil(), 1, Value::nil(), 0.0});
  EXPECT_DEATH((void)S.rootVector(P.value()),
               "rootVector: value is not a vector object");
}
