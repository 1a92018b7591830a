//===- workloads/Smvm.cpp --------------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "workloads/Smvm.h"

#include "gc/Handles.h"
#include "runtime/Parallel.h"
#include "support/Assert.h"
#include "support/XorShift.h"

#include <chrono>
#include <cmath>

using namespace manti;
using namespace manti::workloads;

SmvmProblem manti::workloads::makeProblem(RootScope &S, const SmvmParams &P) {
  XorShift64 Rng(P.Seed);
  int64_t N = P.NumRows;
  int64_t Nnz = P.NumNonZeros;

  // Distribute non-zeros across rows: a base share per row plus a
  // remainder spread over the first rows, columns uniform at random.
  std::vector<int64_t> RowPtr(static_cast<std::size_t>(N + 1));
  int64_t Base = Nnz / N;
  int64_t Extra = Nnz % N;
  RowPtr[0] = 0;
  for (int64_t R = 0; R < N; ++R)
    RowPtr[static_cast<std::size_t>(R + 1)] =
        RowPtr[static_cast<std::size_t>(R)] + Base + (R < Extra ? 1 : 0);
  MANTI_CHECK(RowPtr.back() == Nnz, "row distribution must cover all nnz");

  std::vector<int64_t> ColIdx(static_cast<std::size_t>(Nnz));
  std::vector<double> Vals(static_cast<std::size_t>(Nnz));
  for (int64_t I = 0; I < Nnz; ++I) {
    ColIdx[static_cast<std::size_t>(I)] =
        static_cast<int64_t>(Rng.nextBelow(static_cast<uint64_t>(N)));
    Vals[static_cast<std::size_t>(I)] = Rng.nextDouble(-1.0, 1.0);
  }
  std::vector<double> X(static_cast<std::size_t>(N));
  for (auto &V : X)
    V = Rng.nextDouble(-1.0, 1.0);

  // Shared immutable inputs go straight to the global heap.
  return SmvmProblem{
      allocGlobalRaw(S, RowPtr.data(), RowPtr.size() * 8),
      allocGlobalRaw(S, ColIdx.data(), ColIdx.size() * 8),
      allocGlobalRaw(S, Vals.data(), Vals.size() * 8),
      allocGlobalRaw(S, X.data(), X.size() * 8),
      N,
      Nnz};
}

namespace {

struct SmvmCtx {
  const SmvmProblem *Prob;
  double *Y;
  /// Home node of the chunk backing the non-zero values: row-range
  /// tasks are tagged with it so the traversal lands where the matrix
  /// lives.
  NodeId DataHome = Task::NoAffinity;
};

NodeId rowAffinity(int64_t, int64_t, void *CtxP) {
  return static_cast<SmvmCtx *>(CtxP)->DataHome;
}

void rowRange(Runtime &, VProc &, int64_t Lo, int64_t Hi, void *CtxP) {
  auto *Ctx = static_cast<SmvmCtx *>(CtxP);
  const SmvmProblem &Prob = *Ctx->Prob;
  const auto *RowPtr = static_cast<const int64_t *>(rawData(Prob.RowPtr));
  const auto *ColIdx = static_cast<const int64_t *>(rawData(Prob.ColIdx));
  const auto *Vals = static_cast<const double *>(rawData(Prob.Vals));
  const auto *X = static_cast<const double *>(rawData(Prob.X));
  for (int64_t R = Lo; R < Hi; ++R) {
    double Sum = 0;
    for (int64_t I = RowPtr[R]; I < RowPtr[R + 1]; ++I)
      Sum += Vals[I] * X[ColIdx[I]];
    Ctx->Y[R] = Sum;
  }
}

} // namespace

void manti::workloads::smvm(Runtime &RT, VProc &VP, const SmvmProblem &Prob,
                            double *Y) {
  SmvmCtx Ctx{&Prob, Y,
              RT.world().homeNodeOf(Prob.Vals, Task::NoAffinity)};
  int64_t Grain = std::max<int64_t>(16, Prob.NumRows / 512);
  parallelFor(RT, VP, 0, Prob.NumRows, Grain, rowRange, &Ctx, rowAffinity);
}

void manti::workloads::smvmSerial(const SmvmProblem &Prob, double *Y) {
  const auto *RowPtr = static_cast<const int64_t *>(rawData(Prob.RowPtr));
  const auto *ColIdx = static_cast<const int64_t *>(rawData(Prob.ColIdx));
  const auto *Vals = static_cast<const double *>(rawData(Prob.Vals));
  const auto *X = static_cast<const double *>(rawData(Prob.X));
  for (int64_t R = 0; R < Prob.NumRows; ++R) {
    double Sum = 0;
    for (int64_t I = RowPtr[R]; I < RowPtr[R + 1]; ++I)
      Sum += Vals[I] * X[ColIdx[I]];
    Y[R] = Sum;
  }
}

SmvmResult manti::workloads::runSmvm(Runtime &RT, VProc &VP,
                                     const SmvmParams &P) {
  RootScope S(VP.heap());
  SmvmProblem Prob = makeProblem(S, P);

  std::vector<double> Y(static_cast<std::size_t>(P.NumRows));
  auto Start = std::chrono::steady_clock::now();
  smvm(RT, VP, Prob, Y.data());
  auto End = std::chrono::steady_clock::now();

  std::vector<double> Ref(static_cast<std::size_t>(P.NumRows));
  smvmSerial(Prob, Ref.data());

  SmvmResult Res;
  Res.Rows = P.NumRows;
  Res.Seconds = std::chrono::duration<double>(End - Start).count();
  for (int64_t R = 0; R < P.NumRows; ++R) {
    MANTI_CHECK(std::fabs(Y[static_cast<std::size_t>(R)] -
                          Ref[static_cast<std::size_t>(R)]) < 1e-9,
                "parallel SMVM result diverges from serial reference");
    Res.ResultNorm1 += std::fabs(Y[static_cast<std::size_t>(R)]);
  }
  return Res;
}
