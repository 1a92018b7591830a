//===- gc/Handles.h - typed, RAII-rooted handles for the mutator ---------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public mutator-facing allocation surface. The collector's strict
/// rooting discipline (every Value live across an allocation must sit in
/// a registered root slot) is enforced here *by construction* instead of
/// by caller care:
///
///  * RootScope -- an RAII root frame that owns handle storage, and the
///    only way to root a value for a scope (the collectors, runtime,
///    tests and benches use it too). Opening a scope registers its slot
///    slab with the vproc; destroying it drops every slot the scope
///    created. Scopes nest like the C++ stack and must be destroyed in
///    LIFO order on the owning vproc's thread.
///
///  * Ref<T> / Ref<Object> -- handles to rooted slots. A collection
///    triggered by any allocation transparently updates the slot, so a
///    handle can never dangle. Handles are non-copyable (a copy could
///    outlive its scope) and movable; assigning a handle or a Value to a
///    handle overwrites the rooted slot in place.
///
///  * ObjectType<T> -- the typed object-layout DSL. A plain C++ struct
///    whose Value members are the GC-scanned fields describes a mixed
///    heap object; ObjectType<T> registers the ObjectDescriptor scan
///    function from that spec and generates typed field accessors
///    (Ref<T>::get<&T::Member>()) plus a safe alloc<T>() that roots its
///    pointer arguments automatically, so allocMixedRooted's slot
///    gymnastics never reach mutator code.
///
/// Usage:
/// \code
///   struct ListNode {
///     Value Head;                 // scanned
///     Value Tail;                 // scanned
///     int64_t Generation;         // raw
///     static constexpr const char *GcName = "list-node";
///     static constexpr auto GcPtrFields =
///         ptrFields(&ListNode::Head, &ListNode::Tail);
///   };
///   ObjectType<ListNode>::registerWith(World);  // once, at startup
///
///   RootScope S(Heap);
///   Ref<ListNode> N = alloc<ListNode>(S, ListNode{Head, Tail, 42});
///   Value H = N.get<&ListNode::Head>();         // typed field read
///   Ref<ListNode> G = promote(S, N);            // still typed, re-rooted
/// \endcode
///
/// The raw mixed allocator (gcinternal::allocMixedRooted,
/// gc/HeapInternal.h) is the internal surface beneath this layer; only
/// MANTI_GC_INTERNAL translation units may include that header.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_GC_HANDLES_H
#define MANTI_GC_HANDLES_H

#include "gc/Heap.h"
#include "support/Assert.h"

#include <cstring>
#include <tuple>
#include <type_traits>
#include <utility>

namespace manti {

/// Tag type for untyped handles: Ref<Object> (the default Ref<>) refers
/// to any heap value -- nil, a tagged int, or an object of any layout.
struct Object {};

template <typename T = Object> class Ref;
template <typename T = Object> class VecRef;
class RootScope;

namespace detail {

/// Calls the internal gcinternal::allocMixedRooted: \p PtrFieldSlots
/// are rooted slots in descriptor offset order, re-read after the
/// allocation. Lives in Handles.cpp so the raw allocator
/// (gc/HeapInternal.h) is touched only from the handle layer's own TU.
Value allocMixedRooted(VProcHeap &H, uint16_t Id, const Word *RawFields,
                       Value *const *PtrFieldSlots);

/// Byte offset of member \p M within T, in 8-byte words. Member-pointer
/// offsets are not constexpr-accessible portably, so a static probe
/// instance is measured once per (T, member-type) instantiation.
template <typename T, typename M> unsigned wordOffsetOf(M T::*Member) {
  static const T Probe{};
  auto Off = reinterpret_cast<const char *>(&(Probe.*Member)) -
             reinterpret_cast<const char *>(&Probe);
  return static_cast<unsigned>(Off / sizeof(Word));
}

/// Reads a T::Member-typed field out of a heap word.
template <typename MT> MT fieldFromWord(Word W) {
  static_assert(sizeof(MT) == sizeof(Word),
                "GC object members must be word-sized");
  MT Out;
  std::memcpy(&Out, &W, sizeof(MT));
  return Out;
}
template <> inline Value fieldFromWord<Value>(Word W) {
  return Value::fromBits(W);
}

} // namespace detail

/// Builds a constexpr pointer-field spec for ObjectType<T>: list the
/// Value members of T, in declaration order.
template <typename... Ms> constexpr auto ptrFields(Ms... Members) {
  return std::make_tuple(Members...);
}

//===----------------------------------------------------------------------===//
// ObjectType<T>
//===----------------------------------------------------------------------===//

/// Typed layout descriptor for a mixed heap object modeled by the plain
/// struct \p T. Requirements on T:
///  * standard layout, trivially copyable, default constructible;
///  * every member is 8 bytes (Value for scanned fields, int64_t /
///    uint64_t / double / Word for raw fields);
///  * `static constexpr const char *GcName` -- the registered type name;
///  * `static constexpr auto GcPtrFields = ptrFields(&T::A, ...)` --
///    the Value members, in declaration order.
///
/// Object IDs are per-GCWorld (the descriptor table is world state), so
/// registration binds the id in the world's typed-id registry rather
/// than in a global.
template <typename T> class ObjectType {
  static_assert(std::is_standard_layout_v<T> &&
                    std::is_trivially_copyable_v<T>,
                "GC object types must be standard-layout and trivially "
                "copyable");
  static_assert(sizeof(T) % sizeof(Word) == 0,
                "GC object types must be a whole number of 8-byte words");

public:
  static constexpr unsigned SizeWords =
      static_cast<unsigned>(sizeof(T) / sizeof(Word));
  static constexpr unsigned NumPtrFields =
      static_cast<unsigned>(std::tuple_size_v<decltype(T::GcPtrFields)>);

  /// Registers T's descriptor with \p W and binds its object ID in the
  /// world's typed-id registry. Call once per world, before vprocs run.
  /// \returns the new object ID.
  static uint16_t registerWith(GCWorld &W) {
    MANTI_CHECK(W.typedObjectId(tag()) == 0,
                "object type already registered with this world");
    std::vector<uint16_t> Offsets;
    Offsets.reserve(NumPtrFields);
    std::apply(
        [&](auto... Ms) { (Offsets.push_back(ptrWordOffset(Ms)), ...); },
        T::GcPtrFields);
    for (unsigned I = 1; I < Offsets.size(); ++I)
      MANTI_CHECK(Offsets[I] > Offsets[I - 1],
                  "GcPtrFields must list Value members in declaration order");
    uint16_t Id = W.descriptors().registerMixed(T::GcName, SizeWords, Offsets);
    W.bindTypedObjectId(tag(), Id);
    return Id;
  }

  /// \returns T's object ID in \p W; aborts if T was never registered.
  static uint16_t idIn(const GCWorld &W) {
    uint16_t Id = W.typedObjectId(tag());
    MANTI_CHECK(Id != 0, "object type not registered with this world");
    return Id;
  }

  /// \returns true once registerWith(W) has run.
  static bool registeredIn(const GCWorld &W) {
    return W.typedObjectId(tag()) != 0;
  }

  /// \returns true if \p V points at a T object in \p W.
  static bool isInstance(const GCWorld &W, Value V) {
    return V.isPtr() && registeredIn(W) && objectId(V) == idIn(W);
  }

  /// Typed field read from a raw Value (no handle needed). For use in
  /// tight, allocation-free traversals; anything that allocates should
  /// hold a Ref<T> and use Ref::get instead.
  template <auto Member> static auto get(Value V) {
    return get(V, Member);
  }

  /// Runtime-member-pointer variant (e.g. indexing a constexpr array of
  /// member pointers for repeated fields).
  template <typename MT> static MT get(Value V, MT T::*Member) {
    assert(V.isPtr() && "typed field read from a non-pointer value");
    return detail::fieldFromWord<MT>(
        V.asPtr()[detail::wordOffsetOf<T, MT>(Member)]);
  }

private:
  template <typename MT> static uint16_t ptrWordOffset(MT T::*Member) {
    static_assert(std::is_same_v<MT, Value>,
                  "GcPtrFields may only list Value members");
    return static_cast<uint16_t>(detail::wordOffsetOf<T, MT>(Member));
  }

  /// Unique per-T key for the world's typed-id registry.
  static const void *tag() {
    static const char Tag = 0;
    return &Tag;
  }
};

//===----------------------------------------------------------------------===//
// RootScope
//===----------------------------------------------------------------------===//

/// An RAII root frame that owns handle storage. All handles created
/// through a scope live in fixed-capacity slot slabs the scope owns: one
/// embedded inline, overflow slabs chained from the heap's recycling
/// list. The slabs themselves are registered with the collectors
/// (VProcHeap::SlabStack, enumerated by forEachVProcRoot), so creating a
/// slot is one slab store, and the destructor deregisters the whole
/// frame wholesale. Slabs never move while registered, so handle slot
/// addresses stay stable no matter how many slots a scope grows.
class RootScope {
public:
  explicit RootScope(VProcHeap &Heap)
      : Heap(Heap), SlabMark(Heap.SlabStack.size()),
        PrevSatbHeap(gcdetail::CurrentSatbHeap), Cur(&Inline) {
    // Publish the heap for the handle layer's deletion barrier
    // (satbRecordOverwrite in gc/Heap.h): scopes nest LIFO on one vproc
    // thread, so the innermost scope's heap is always current.
    gcdetail::CurrentSatbHeap = &Heap;
    // The batched registration: one push covers the inline slab's
    // (future) slots; growSlab registers overflow slabs the same way.
    Heap.SlabStack.push_back(&Inline);
  }
  ~RootScope() {
    gcdetail::CurrentSatbHeap = PrevSatbHeap;
    // Recycle this scope's overflow slabs (everything above the inline
    // slab at SlabMark; nesting is LIFO, so they are all ours), then pop
    // the whole frame in one resize.
    auto &Slabs = Heap.SlabStack;
    assert(SlabMark < Slabs.size() && Slabs[SlabMark] == &Inline &&
           "RootScopes must be destroyed in LIFO order");
    for (std::size_t I = SlabMark + 1; I < Slabs.size(); ++I) {
      Slabs[I]->NextFree = Heap.SlabFreeList;
      Heap.SlabFreeList = Slabs[I];
    }
    Slabs.resize(SlabMark);
  }

  RootScope(const RootScope &) = delete;
  RootScope &operator=(const RootScope &) = delete;

  VProcHeap &heap() const { return Heap; }
  GCWorld &world() const { return Heap.world(); }

  /// Roots \p V in a fresh scope-owned slot and \returns an untyped
  /// handle to it.
  Ref<Object> root(Value V);

  /// Roots \p V as a \p T instance (checked: nil or an object whose ID
  /// matches ObjectType<T> in this world).
  template <typename T> Ref<T> rootAs(Value V);

  /// Re-roots another handle's current value into this scope. Useful for
  /// returning a result owned by an inner scope to the caller's scope.
  template <typename T> Ref<T> root(const Ref<T> &Other);

  /// Roots \p V (nil or a vector object; checked) in a fresh scope-owned
  /// slot and \returns a typed-vector handle to it.
  template <typename T = Object> VecRef<T> rootVector(Value V);

  /// Low-level escape hatch: a scope-owned rooted slot holding \p V.
  /// The reference stays valid (and registered) until the scope dies.
  /// A scope's first RootSlab::Capacity slots are contiguous (its inline
  /// slab), so a fresh scope can root an element array for allocVector.
  Value &slot(Value V) {
    if (MANTI_UNLIKELY(Cur->Count == RootSlab::Capacity))
      growSlab();
    Value &Out = Cur->Slots[Cur->Count++];
    Out = V;
    ++NumOwned;
    return Out;
  }

  /// Number of slots this scope has created (tests / stats).
  std::size_t numSlots() const { return NumOwned; }

private:
  /// Chains a fresh (or recycled) overflow slab and makes it current.
  /// Out of line: slot() inlines everywhere, and growth is the cold 1/16
  /// of calls. (Handles.cpp)
  MANTI_NOINLINE void growSlab();

  VProcHeap &Heap;
  std::size_t SlabMark;
  VProcHeap *PrevSatbHeap;
  RootSlab *Cur;
  std::size_t NumOwned = 0;
  /// First slab, embedded: scopes of up to RootSlab::Capacity slots (the
  /// overwhelmingly common case) never touch the heap allocator.
  RootSlab Inline;
};

//===----------------------------------------------------------------------===//
// Ref<T>
//===----------------------------------------------------------------------===//

/// A handle to a rooted slot. The slot is owned by a RootScope (or other
/// registered root storage) and is updated by every collection, so the
/// handle cannot hold a stale pointer. Non-copyable: a copy could be
/// bound somewhere that outlives the scope. Movable: move-construction
/// transfers the slot within the scope; move-assignment overwrites this
/// handle's rooted slot with the source's current value (both slots stay
/// registered, so no rooting is lost either way).
template <typename T> class Ref {
public:
  Ref(const Ref &) = delete;
  Ref &operator=(const Ref &) = delete;

  Ref(Ref &&Other) noexcept : Slot(Other.Slot) {}
  Ref &operator=(Ref &&Other) noexcept {
    satbRecordOverwrite(*Slot);
    *Slot = *Other.Slot;
    return *this;
  }

  /// Swaps the two handles' *values* (both slots stay registered).
  /// Generic std::swap would mis-compose the aliasing move-ctor with the
  /// value-copying move-assign and drop one value; this ADL overload is
  /// what unqualified swap (std::sort etc.) picks up instead.
  friend void swap(Ref &A, Ref &B) noexcept {
    Value Tmp = *A.Slot;
    *A.Slot = *B.Slot;
    *B.Slot = Tmp;
  }

  /// Overwrites the rooted slot in place (e.g. loop accumulators). The
  /// dropped value feeds the concurrent collector's deletion barrier.
  Ref &operator=(Value V) {
    satbRecordOverwrite(*Slot);
    *Slot = V;
    return *this;
  }

  /// Snapshot of the current value. Only on named handles: a snapshot
  /// taken from a temporary handle is the classic un-rooting footgun
  /// (the temporary's scope may pop before the Value is used), so it is
  /// a compile error -- bind the handle to a name first.
  Value value() const & { return *Slot; }
  Value value() const && = delete;

  /// Implicit decay to Value for interop with the Value-level accessors
  /// (vectorGet, rope::length, ...). Same lvalue-only rule as value().
  operator Value() const & { return *Slot; }
  operator Value() const && = delete;

  bool isNil() const { return Slot->isNil(); }
  bool isInt() const { return Slot->isInt(); }
  bool isPtr() const { return Slot->isPtr(); }
  int64_t asInt() const { return Slot->asInt(); }

  /// Typed field read (T described via ObjectType): N.get<&T::Member>().
  template <auto Member> auto get() const {
    static_assert(!std::is_same_v<T, Object>,
                  "typed field access requires a typed handle; use "
                  "RootScope::rootAs<T> to cast");
    return ObjectType<T>::template get<Member>(*Slot);
  }

  /// Runtime-member-pointer field read (repeated fields).
  template <typename MT> MT get(MT T::*Member) const {
    return ObjectType<T>::get(*Slot, Member);
  }

  /// The registered slot (collector-facing; tests use it to observe
  /// forwarding).
  Value *slotAddr() const { return Slot; }

private:
  friend class RootScope;
  template <typename U> friend Ref<U> promote(RootScope &S, const Ref<U> &V);
  explicit Ref(Value &Slot) : Slot(&Slot) {}

  Value *Slot;
};

//===----------------------------------------------------------------------===//
// VecRef<T>
//===----------------------------------------------------------------------===//

/// A handle to a rooted slot holding a *vector* object, with typed
/// element access -- the vector face of the handle layer, retiring raw
/// vectorGet/vectorInit from mutator code. T is the element view:
/// Object (the default) for untyped elements, or an ObjectType-described
/// struct, in which case rooted element reads are rootAs<T>-checked.
///
/// Like Ref, a VecRef *is* a registered slot: collections update it
/// transparently, so it may be held across allocations, and assigning a
/// Value re-targets the slot in place -- which makes the cons-list
/// traversal pattern `Cell = Cell.at(1)` allocation-free and rooted:
/// \code
///   RootScope S(H);
///   VecRef<> Cell = S.rootVector(List);
///   for (; !Cell.isNil(); Cell = Cell.at(1))
///     Sum += Cell.intAt(0);
/// \endcode
template <typename T> class VecRef {
public:
  VecRef(const VecRef &) = delete;
  VecRef &operator=(const VecRef &) = delete;

  VecRef(VecRef &&Other) noexcept : Slot(Other.Slot) {}
  VecRef &operator=(VecRef &&Other) noexcept {
    satbRecordOverwrite(*Slot);
    *Slot = *Other.Slot;
    return *this;
  }

  /// Swaps the two handles' *values* (both slots stay registered) --
  /// the same ADL overload Ref needs: generic std::swap would
  /// mis-compose the aliasing move-ctor with the value-copying
  /// move-assign and drop one value.
  friend void swap(VecRef &A, VecRef &B) noexcept {
    Value Tmp = *A.Slot;
    *A.Slot = *B.Slot;
    *B.Slot = Tmp;
  }

  /// Re-targets the rooted slot (nil or a vector object; checked). The
  /// dropped value feeds the concurrent collector's deletion barrier.
  VecRef &operator=(Value V) {
    assert((V.isNil() || (V.isPtr() && objectId(V) == IdVector)) &&
           "VecRef may only hold vector objects");
    satbRecordOverwrite(*Slot);
    *Slot = V;
    return *this;
  }

  /// Same lvalue-only decay rules as Ref (see Ref::value).
  Value value() const & { return *Slot; }
  Value value() const && = delete;
  operator Value() const & { return *Slot; }
  operator Value() const && = delete;

  bool isNil() const { return Slot->isNil(); }
  uint64_t size() const { return vectorLen(*Slot); }

  /// Element snapshot. For allocation-free traversals; anything that
  /// allocates between the read and the use should root the element
  /// (get below) instead.
  Value at(uint64_t I) const { return vectorGet(*Slot, I); }
  /// Typed scalar element read.
  int64_t intAt(uint64_t I) const { return at(I).asInt(); }

  /// Rooted, typed element read: the element comes back as a checked
  /// Ref<T> rooted in \p S.
  Ref<T> get(RootScope &S, uint64_t I) const;

  /// Initialization-time element store (PML values are immutable once
  /// published, so only before the vector escapes its allocator).
  void init(uint64_t I, Value E) { vectorInit(*Slot, I, E); }
  void init(uint64_t I, const Ref<T> &E) { init(I, E.value()); }

  /// Static typed element reads for raw-Value traversals that hold no
  /// handle (the vector analogue of ObjectType<T>::get(Value)).
  static Value get(Value Vec, uint64_t I) { return vectorGet(Vec, I); }
  static int64_t getInt(Value Vec, uint64_t I) {
    return get(Vec, I).asInt();
  }

  /// The registered slot (collector-facing; tests observe forwarding).
  Value *slotAddr() const { return Slot; }

private:
  friend class RootScope;
  explicit VecRef(Value &Slot) : Slot(&Slot) {}

  Value *Slot;
};

inline Ref<Object> RootScope::root(Value V) { return Ref<Object>(slot(V)); }

template <typename T> Ref<T> RootScope::rootAs(Value V) {
  if constexpr (!std::is_same_v<T, Object>)
    MANTI_CHECK(!V.isPtr() || objectId(V) == ObjectType<T>::idIn(world()),
                "rootAs: value is not an instance of the requested type");
  return Ref<T>(slot(V));
}

template <typename T> Ref<T> RootScope::root(const Ref<T> &Other) {
  return Ref<T>(slot(Other.value()));
}

template <typename T> VecRef<T> RootScope::rootVector(Value V) {
  MANTI_CHECK(V.isNil() || (V.isPtr() && objectId(V) == IdVector),
              "rootVector: value is not a vector object");
  return VecRef<T>(slot(V));
}

template <typename T>
Ref<T> VecRef<T>::get(RootScope &S, uint64_t I) const {
  return S.rootAs<T>(at(I));
}

//===----------------------------------------------------------------------===//
// Allocation through handles
//===----------------------------------------------------------------------===//

/// Allocates a mixed object of type \p T initialized from \p Init. The
/// Value members of \p Init are copied into rooted slots before the
/// allocation and re-read afterwards, so a collection triggered by the
/// allocation cannot leave stale pointers in the new object. \returns a
/// typed handle rooted in \p S.
template <typename T> Ref<T> alloc(RootScope &S, const T &Init) {
  uint16_t Id = ObjectType<T>::idIn(S.world());
  Word Raw[ObjectType<T>::SizeWords];
  std::memcpy(Raw, &Init, sizeof(T));

  Value V;
  {
    // The pointer fields' scope closes before the result is rooted in S.
    // (Braced lists evaluate in order, so Slots follows GcPtrFields.)
    RootScope Tmp(S.heap());
    V = std::apply(
        [&](auto... Ms) {
          Value *Slots[] = {&Tmp.slot(Init.*Ms)..., nullptr};
          return detail::allocMixedRooted(S.heap(), Id, Raw, Slots);
        },
        T::GcPtrFields);
  }
  return S.rootAs<T>(V);
}

/// Convenience: alloc<T>(S, head, tail, 42) aggregate-initializes T.
/// Handle arguments decay to Values through their implicit conversion.
/// (A single T argument dispatches to the overload above instead.)
template <typename T, typename... Args,
          typename = std::enable_if_t<!(sizeof...(Args) == 1 &&
                                        (std::is_same_v<std::decay_t<Args>,
                                                        T> &&
                                         ...))>>
Ref<T> alloc(RootScope &S, Args &&...Fields) {
  return alloc<T>(S, T{std::forward<Args>(Fields)...});
}

/// Allocates a raw-data object (no scanned fields; see
/// VProcHeap::allocRaw).
inline Ref<Object> allocRaw(RootScope &S, const void *Data,
                            std::size_t Bytes) {
  return S.root(S.heap().allocRaw(Data, Bytes));
}

/// Allocates a raw-data object directly in the global heap.
inline Ref<Object> allocGlobalRaw(RootScope &S, const void *Data,
                                  std::size_t Bytes) {
  return S.root(S.heap().allocGlobalRaw(Data, Bytes));
}

/// Allocates a vector of the given elements (Values or handles), rooting
/// them across the allocation.
template <typename... Vs>
Ref<Object> allocVectorOf(RootScope &S, const Vs &...Elems) {
  static_assert(sizeof...(Vs) <= RootSlab::Capacity,
                "allocVectorOf roots its elements contiguously in one "
                "inline slab");
  Value V;
  {
    // A fresh scope's inline slab holds the elements contiguously, in
    // order; it closes before the result is rooted in S.
    RootScope Tmp(S.heap());
    Value *Slots[] = {&Tmp.slot(Elems)..., nullptr};
    V = S.heap().allocVector(Slots[0], sizeof...(Vs));
  }
  return S.root(V);
}

/// Allocates a vector of \p N copies of a (rooted-across-collection)
/// fill value.
inline Ref<Object> allocVectorFill(RootScope &S, std::size_t N, Value Fill) {
  return S.root(S.heap().allocVectorFill(N, Fill));
}

/// Allocates a vector whose elements are re-read from the rooted slots
/// of the given handles after any collection.
inline Ref<Object> allocVector(RootScope &S, const Value *Elems,
                               std::size_t N) {
  // The caller vouches that Elems points at rooted slots (e.g. obtained
  // from RootScope::slot); handles should prefer allocVectorOf.
  return S.root(S.heap().allocVector(Elems, N));
}

/// Allocates a vector of \p N copies of a non-pointer \p Fill value as a
/// typed-vector handle, for init-then-publish construction
/// (VecRef::init each element before the vector escapes).
template <typename T = Object>
VecRef<T> allocVec(RootScope &S, std::size_t N,
                   Value Fill = Value::nil()) {
  return S.rootVector<T>(S.heap().allocVectorFill(N, Fill));
}

//===----------------------------------------------------------------------===//
// Promotion through handles
//===----------------------------------------------------------------------===//

/// Promotes the handle's object graph to the global heap and \returns a
/// handle to the promoted value, rooted in \p S (see VProcHeap::promote;
/// stale copies elsewhere are repaired lazily by the next local
/// collection).
template <typename T> Ref<T> promote(RootScope &S, const Ref<T> &V) {
  return Ref<T>(S.slot(S.heap().promote(V.value())));
}

/// In-place promotion: overwrites the handle's rooted slot with the
/// promoted value.
template <typename T> void promoteInPlace(RootScope &S, Ref<T> &V) {
  V = S.heap().promote(V.value());
}

} // namespace manti

#endif // MANTI_GC_HANDLES_H
