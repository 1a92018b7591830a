//===- workloads/Quicksort.cpp ---------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "workloads/Quicksort.h"

#include "gc/Handles.h"
#include "runtime/Rope.h"
#include "support/XorShift.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

using namespace manti;
using namespace manti::workloads;

namespace {

/// Sorts the rope rooted in \p In and clears \p In before anything
/// allocates, so the input dies piece by piece as it is partitioned and
/// the next global collection copies none of it.
Value sortRope(Runtime &RT, VProc &VP, Ref<> &In, int64_t Cutoff);

/// Shared state for one spawned sub-sort.
struct SortSplit {
  Runtime *RT;
  int64_t Cutoff;
  ResultCell *Cell;
  JoinCounter Join{1};
};

void sortTask(Runtime &RT, VProc &VP, Task T) {
  auto &Split = *static_cast<SortSplit *>(T.Ctx);
  RootScope S(VP.heap());
  Ref<> In = S.root(T.Env);
  Value Sorted = sortRope(RT, VP, In, Split.Cutoff);
  Split.Cell->fill(VP, Sorted);
  Split.Join.sub();
}

/// Sequential base case: materialize, std::sort, rebuild.
Value sortLeaf(VProc &VP, Ref<> &In) {
  int64_t N = rope::length(In);
  std::vector<uint64_t> Buf(static_cast<std::size_t>(N));
  rope::toArray(In, Buf.data());
  In = Value::nil();
  std::sort(Buf.begin(), Buf.end(), [](uint64_t A, uint64_t B) {
    return static_cast<int64_t>(A) < static_cast<int64_t>(B);
  });
  return rope::fromArray(VP.heap(), Buf.data(), N);
}

/// Elements per flat partition pass. Above it, the filter forks over
/// the rope's children, so no vproc runs a flat pass (a stretch with no
/// allocation and no safe point) over more than this many elements.
constexpr int64_t PartGrain = 64 * 1024;
static_assert(PartGrain >= rope::LeafElems,
              "a rope longer than the grain must be an interior node");

/// The three ropes of one partition step, rooted in the caller's scope.
struct Partition {
  Ref<> Less, Equal, Greater;
};

Partition partition(RootScope &S, Runtime &RT, VProc &VP, Value R,
                    int64_t Pivot);

/// Shared state for one spawned right-child partition.
struct PartSplit {
  PartSplit(VProc &Owner, int64_t Pivot)
      : Pivot(Pivot), Less(Owner), Equal(Owner), Greater(Owner) {}
  int64_t Pivot;
  ResultCell Less, Equal, Greater;
  JoinCounter Join{1};
};

void partitionTask(Runtime &RT, VProc &VP, Task T) {
  auto &Split = *static_cast<PartSplit *>(T.Ctx);
  RootScope S(VP.heap());
  Partition P = partition(S, RT, VP, T.Env, Split.Pivot);
  Split.Less.fill(VP, P.Less);
  Split.Equal.fill(VP, P.Equal);
  Split.Greater.fill(VP, P.Greater);
  Split.Join.sub();
}

/// Calls \p Visit(Data, Len) on each leaf of the non-empty rope \p R,
/// left to right. Allocates nothing.
template <typename FnT> void forEachLeaf(Value R, FnT &Visit) {
  if (rope::depth(R) == 0) {
    Visit(static_cast<const uint64_t *>(rawData(R)), rope::length(R));
    return;
  }
  using Node = ObjectType<RopeNode>;
  forEachLeaf(Node::get<&RopeNode::Left>(R), Visit);
  forEachLeaf(Node::get<&RopeNode::Right>(R), Visit);
}

/// Pins \p V to a register, so the compiler cannot turn the arithmetic
/// that uses it back into a data-dependent branch.
inline void keepInRegister(int64_t &V) { asm("" : "+r"(V)); }

/// Flat three-way partition of the \p N-element rope \p R (N at most
/// the grain) in one branch-free pass over its leaves. Every element is
/// written at the front cursor Lo and at the back cursor Hi, and only
/// the cursor of its side advances, so the less elements collect at
/// the front, the greater ones at the back, and [Lo, Hi] is left for
/// the elements equal to the pivot. The buffer (8*N bytes, so at most
/// 512 KiB) dies on return, before the caller joins or forks: kept
/// alive across the join and the recursive sort, every level of every
/// vproc's recursion spine would hold one.
Partition partitionFlat(RootScope &S, Value R, int64_t N, int64_t Pivot) {
  auto Buf = std::make_unique_for_overwrite<uint64_t[]>(
      static_cast<std::size_t>(N));
  // Lo <= Hi + 1 holds throughout, and each store lands in a slot no
  // earlier element has claimed.
  int64_t Lo = 0, Hi = N - 1;
  auto Filter = [&](const uint64_t *Data, int64_t Len) {
    // Locals stay in registers; the stores through Out could alias the
    // captured variables, so the loop would reload them.
    uint64_t *Out = Buf.get();
    const int64_t P = Pivot;
    int64_t L = Lo, H = Hi;
    for (int64_t I = 0; I < Len; ++I) {
      uint64_t W = Data[I];
      auto X = static_cast<int64_t>(W);
      int64_t IsLess = X < P, IsGreater = X > P;
      keepInRegister(IsLess);
      keepInRegister(IsGreater);
      Out[L] = W;
      Out[H] = W;
      L += IsLess;
      H -= IsGreater;
    }
    Lo = L;
    Hi = H;
  };
  forEachLeaf(R, Filter);
  uint64_t *Data = Buf.get();
  std::fill(Data + Lo, Data + Hi + 1, static_cast<uint64_t>(Pivot));

  // R is fully read; from here on it may be collected. Braced
  // initializers evaluate left to right; each rope is rooted in S
  // before the next one allocates.
  return {rope::fromArray(S, Data, Lo),
          rope::fromArray(S, Data + Lo, Hi + 1 - Lo),
          rope::fromArray(S, Data + Hi + 1, N - Hi - 1)};
}

/// NESL-style three-way filter of rope \p R around \p Pivot, in
/// parallel over the rope's own tree: above the grain, the right child
/// is spawned as a task whose environment is that subrope (a steal
/// promotes it), the left child is filtered here, and the halves'
/// ropes are concatenated pairwise. \p R need not be rooted: it is
/// read before anything allocates.
Partition partition(RootScope &S, Runtime &RT, VProc &VP, Value R,
                    int64_t Pivot) {
  int64_t N = rope::length(R);
  if (N <= PartGrain)
    return partitionFlat(S, R, N, Pivot);

  // Read both children before anything allocates.
  using Node = ObjectType<RopeNode>;
  Value Right = Node::get<&RopeNode::Right>(R);
  Ref<> Left = S.root(Node::get<&RopeNode::Left>(R));

  PartSplit Split(VP, Pivot);
  VP.spawn({partitionTask, &Split, Right, 0, 0});
  // The recursion reads the left child before it allocates, so the
  // child dies as its pieces are filtered.
  Value LeftRope = Left;
  Left = Value::nil();
  Partition L = partition(S, RT, VP, LeftRope, Pivot);
  VP.joinWait(Split.Join);
  Ref<> Less = S.root(Split.Less.take());
  Ref<> Equal = S.root(Split.Equal.take());
  Ref<> Greater = S.root(Split.Greater.take());

  Partition Out{rope::concat(S, L.Less, Less), rope::concat(S, L.Equal, Equal),
                rope::concat(S, L.Greater, Greater)};
  // The halves live on only inside the concatenations.
  for (Ref<> *Half : {&L.Less, &L.Equal, &L.Greater, &Less, &Equal, &Greater})
    *Half = Value::nil();
  return Out;
}

Value sortRope(Runtime &RT, VProc &VP, Ref<> &In, int64_t Cutoff) {
  int64_t N = rope::length(In);
  if (N <= Cutoff)
    return sortLeaf(VP, In);

  int64_t A = rope::getInt(In, 0);
  int64_t B = rope::getInt(In, N / 2);
  int64_t C = rope::getInt(In, N - 1);
  int64_t Pivot = std::max(std::min(A, B), std::min(std::max(A, B), C));

  // partition reads R before it allocates, so no root need hold it.
  RootScope S(VP.heap());
  Value R = In;
  In = Value::nil();
  Partition P = partition(S, RT, VP, R, Pivot);

  // Fork: sort the greater partition as a stealable task whose
  // environment is the rope itself; sort the lesser partition here.
  ResultCell Cell(VP);
  SortSplit Split{&RT, Cutoff, &Cell};
  VP.spawn({sortTask, &Split, P.Greater, 0, 0});
  P.Greater = Value::nil(); // the deque, or a thief, holds it now

  Ref<> SortedLess = S.root(sortRope(RT, VP, P.Less, Cutoff));
  VP.joinWait(Split.Join);
  Ref<> SortedGreater = S.root(Cell.take());

  // Join the shallower pair first, so each recursion level adds one
  // spine level and concat never hits its depth budget's serial rebuild.
  if (rope::depth(SortedLess) >= rope::depth(SortedGreater)) {
    Ref<> Back = rope::concat(S, P.Equal, SortedGreater);
    return rope::concat(VP.heap(), SortedLess, Back);
  }
  Ref<> Front = rope::concat(S, SortedLess, P.Equal);
  return rope::concat(VP.heap(), Front, SortedGreater);
}

} // namespace

Value manti::workloads::quicksort(Runtime &RT, VProc &VP, Value R,
                                  int64_t Cutoff) {
  RootScope S(VP.heap());
  Ref<> In = S.root(R);
  return sortRope(RT, VP, In, Cutoff);
}

QuicksortResult manti::workloads::runQuicksort(Runtime &RT, VProc &VP,
                                               const QuicksortParams &P) {
  RootScope S(VP.heap());
  XorShift64 Rng(P.Seed);
  uint64_t CheckIn = 0;
  std::vector<uint64_t> Input(static_cast<std::size_t>(P.NumElements));
  for (auto &W : Input) {
    W = Rng.next() >> 8; // keep values positive as int64
    CheckIn += W;
  }
  Ref<> R = rope::fromArray(S, Input.data(),
                            static_cast<int64_t>(Input.size()));

  auto Start = std::chrono::steady_clock::now();
  Ref<> Sorted = S.root(sortRope(RT, VP, R, P.Cutoff));
  auto End = std::chrono::steady_clock::now();

  QuicksortResult Res;
  Res.Length = rope::length(Sorted);
  Res.Seconds = std::chrono::duration<double>(End - Start).count();
  std::vector<uint64_t> Out(static_cast<std::size_t>(Res.Length));
  rope::toArray(Sorted, Out.data());
  Res.Sorted = std::is_sorted(Out.begin(), Out.end(),
                              [](uint64_t A, uint64_t B) {
                                return static_cast<int64_t>(A) <
                                       static_cast<int64_t>(B);
                              });
  for (uint64_t W : Out)
    Res.Checksum += W;
  Res.Sorted = Res.Sorted && Res.Checksum == CheckIn &&
               Res.Length == P.NumElements;
  return Res;
}
