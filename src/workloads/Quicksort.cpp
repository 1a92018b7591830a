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

/// The three ropes of one partition step, rooted in the caller's scope.
struct Partition {
  Ref<> Less, Equal, Greater;
};

/// NESL-style three-way partition of the \p N-element rope \p R on a
/// median-of-three pivot, done in place in one flat buffer. The buffer
/// (8*N bytes) dies on return, before the caller forks: kept alive
/// across the recursive sort and the join, every level of every vproc's
/// recursion spine would hold one.
Partition partition(RootScope &S, Value R, int64_t N) {
  std::vector<uint64_t> Buf(static_cast<std::size_t>(N));
  rope::toArray(R, Buf.data());
  auto AsInt = [](uint64_t W) { return static_cast<int64_t>(W); };
  int64_t A = AsInt(Buf.front());
  int64_t B = AsInt(Buf[static_cast<std::size_t>(N / 2)]);
  int64_t C = AsInt(Buf.back());
  int64_t Pivot = std::max(std::min(A, B), std::min(std::max(A, B), C));

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

} // namespace

Value manti::workloads::quicksort(Runtime &RT, VProc &VP, Value R,
                                  int64_t Cutoff) {
  int64_t N = rope::length(R);
  if (N <= Cutoff)
    return sortLeaf(VP, R);

  RootScope S(VP.heap());
  Partition P = partition(S, R, N);

  // Fork: sort the greater partition as a stealable task whose
  // environment is the rope itself; sort the lesser partition here.
  ResultCell Cell(VP);
  SortSplit Split{&RT, Cutoff, &Cell};
  VP.spawn({sortTask, &Split, P.Greater, 0, 0});

  Ref<> SortedLess = S.root(quicksort(RT, VP, P.Less, Cutoff));
  VP.joinWait(Split.Join);
  Ref<> SortedGreater = S.root(Cell.take());

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
