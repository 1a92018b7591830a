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
#include <vector>

using namespace manti;
using namespace manti::workloads;

namespace {

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
  Ref<> Env = S.root(T.Env);
  Value Sorted = quicksort(RT, VP, Env, Split.Cutoff);
  Split.Cell->fill(VP, Sorted);
  Split.Join.sub();
}

/// Sequential base case: materialize, std::sort, rebuild.
Value sortLeaf(VProc &VP, Value R) {
  int64_t N = rope::length(R);
  std::vector<uint64_t> Buf(static_cast<std::size_t>(N));
  rope::toArray(R, Buf.data());
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

/// Flat three-way partition of the \p N-element rope \p R (N at most
/// the grain), done in place in one buffer. The buffer (8*N bytes, so
/// at most 512 KiB) dies on return, before the caller joins or forks:
/// kept alive across the join and the recursive sort, every level of
/// every vproc's recursion spine would hold one.
Partition partitionFlat(RootScope &S, Value R, int64_t N, int64_t Pivot) {
  std::vector<uint64_t> Buf(static_cast<std::size_t>(N));
  rope::toArray(R, Buf.data());
  auto AsInt = [](uint64_t W) { return static_cast<int64_t>(W); };
  auto Lt = std::partition(Buf.begin(), Buf.end(),
                           [&](uint64_t W) { return AsInt(W) < Pivot; });
  auto Gt = std::partition(Lt, Buf.end(),
                           [&](uint64_t W) { return AsInt(W) == Pivot; });
  int64_t NumLess = Lt - Buf.begin(), NumEqual = Gt - Lt;

  // Braced initializers evaluate left to right; each rope is rooted in
  // S before the next one allocates.
  const uint64_t *Data = Buf.data();
  return {rope::fromArray(S, Data, NumLess),
          rope::fromArray(S, Data + NumLess, NumEqual),
          rope::fromArray(S, Data + NumLess + NumEqual,
                          N - NumLess - NumEqual)};
}

/// NESL-style three-way filter of rope \p R around \p Pivot, in
/// parallel over the rope's own tree: above the grain, the right child
/// is spawned as a task whose environment is that subrope (a steal
/// promotes it), the left child is filtered here, and the halves'
/// ropes are concatenated pairwise.
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
  Partition L = partition(S, RT, VP, Left, Pivot);
  VP.joinWait(Split.Join);
  Ref<> Less = S.root(Split.Less.take());
  Ref<> Equal = S.root(Split.Equal.take());
  Ref<> Greater = S.root(Split.Greater.take());

  return {rope::concat(S, L.Less, Less), rope::concat(S, L.Equal, Equal),
          rope::concat(S, L.Greater, Greater)};
}

} // namespace

Value manti::workloads::quicksort(Runtime &RT, VProc &VP, Value R,
                                  int64_t Cutoff) {
  int64_t N = rope::length(R);
  if (N <= Cutoff)
    return sortLeaf(VP, R);

  int64_t A = rope::getInt(R, 0);
  int64_t B = rope::getInt(R, N / 2);
  int64_t C = rope::getInt(R, N - 1);
  int64_t Pivot = std::max(std::min(A, B), std::min(std::max(A, B), C));

  RootScope S(VP.heap());
  Partition P = partition(S, RT, VP, R, Pivot);

  // Fork: sort the greater partition as a stealable task whose
  // environment is the rope itself; sort the lesser partition here.
  ResultCell Cell(VP);
  SortSplit Split{&RT, Cutoff, &Cell};
  VP.spawn({sortTask, &Split, P.Greater, 0, 0});

  Ref<> SortedLess = S.root(quicksort(RT, VP, P.Less, Cutoff));
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
  Ref<> Sorted = S.root(quicksort(RT, VP, R, P.Cutoff));
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
