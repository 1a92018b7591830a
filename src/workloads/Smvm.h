//===- workloads/Smvm.h - sparse matrix / dense vector product ------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's SMVM benchmark: "a sparse-matrix by dense-vector
/// multiplication. The matrix contains 1,091,362 elements and the vector
/// 16,614." The matrix (CSR) and the vector are immutable shared inputs,
/// so they live in the *global* heap as raw objects; every vproc reads
/// them during the row loop -- exactly the small-shared-data access
/// pattern that makes this benchmark the least scalable one on the AMD
/// machine (Section 4.2) and the one benchmark where interleaved
/// allocation wins at high thread counts (Section 4.3).
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_WORKLOADS_SMVM_H
#define MANTI_WORKLOADS_SMVM_H

#include "gc/Handles.h"
#include "runtime/Runtime.h"

#include <cstdint>
#include <vector>

namespace manti::workloads {

struct SmvmParams {
  int64_t NumRows = 16614;   ///< paper's vector length
  int64_t NumNonZeros = 1091362; ///< paper's element count
  uint64_t Seed = 13;
};

struct SmvmResult {
  double ResultNorm1 = 0.0; ///< sum |y_i| for verification
  double Seconds = 0.0;
  int64_t Rows = 0;
};

/// The CSR matrix and the dense vector, resident in the global heap.
/// Each is a handle rooted in the scope given to makeProblem, so a
/// copying global collection updates it instead of leaving it stale.
struct SmvmProblem {
  Ref<> RowPtr; ///< global raw, (NumRows+1) int64
  Ref<> ColIdx; ///< global raw, Nnz int64
  Ref<> Vals;   ///< global raw, Nnz double
  Ref<> X;      ///< global raw, NumRows double
  int64_t NumRows = 0;
  int64_t Nnz = 0;
};

/// Builds a random problem directly in the global heap, rooting its four
/// objects in \p S; the problem is valid while \p S is open.
SmvmProblem makeProblem(RootScope &S, const SmvmParams &P);

/// y = A * x in parallel over rows; writes into \p Y (size NumRows).
void smvm(Runtime &RT, VProc &VP, const SmvmProblem &Prob, double *Y);

/// Serial reference.
void smvmSerial(const SmvmProblem &Prob, double *Y);

/// Full benchmark: build, multiply, verify against serial, report.
SmvmResult runSmvm(Runtime &RT, VProc &VP, const SmvmParams &P);

} // namespace manti::workloads

#endif // MANTI_WORKLOADS_SMVM_H
