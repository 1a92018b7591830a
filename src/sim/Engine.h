//===- sim/Engine.h - fluid bandwidth-contention simulator ----------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic fluid model of a NUMA machine executing a workload
/// profile:
///
///  * The requested number of vprocs is placed on cores sparsely across
///    the nodes (the runtime's real assignment policy).
///  * Each parallel phase is a range split across the vprocs; finished
///    vprocs steal half of the largest remaining range (Cilk-style),
///    paying a steal penalty.
///  * A running leaf has residual CPU cycles and residual memory-stream
///    bytes between its core's node and the data's home node(s). Stream
///    rates come from max-min fair sharing of three resource kinds: the
///    per-node memory controllers, the directed inter-node links (HT3 /
///    QPI capacities from Table 1), and a per-core demand ceiling.
///    Streams are additionally capped so a leaf never demands more
///    bandwidth than finishing alongside its CPU work requires.
///  * Completion of a leaf is an event; rates are recomputed between
///    events, making the model exact for piecewise-constant demands.
///  * Allocation charges GC work: copying cycles on the core plus
///    local-heap traffic whose home follows the page-allocation policy.
///    This term is why the single-node policy collapses even perfectly
///    partitioned benchmarks past ~12 cores (every nursery page lives on
///    node 0) and why interleaving costs a little everywhere (Fig. 6/7).
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_SIM_ENGINE_H
#define MANTI_SIM_ENGINE_H

#include "numa/AllocPolicy.h"
#include "sim/Machine.h"
#include "sim/Workload.h"

#include <vector>

namespace manti::sim {

struct SimParams {
  AllocPolicyKind Policy = AllocPolicyKind::Local;
  unsigned Threads = 1;

  // Model constants: calibrated, not measured (see Workload.h).
  double GcCpuPerAllocByte = 0.2;  ///< copying-collector cycles per byte
  double GcMemPerAllocByte = 0.3;  ///< local-heap DRAM bytes per byte
                                   ///< (nursery mostly stays in L3)
  double SpawnCycles = 300;
  double StealCycles = 4000;
  double ColdMissFactor = 0.03;    ///< DRAM share for cache-resident data
  /// Remote cache-probe stall for gather reads of resident shared data.
  double GatherStallCyclesPerByte = 0.25;
  /// Posted-write stall for remote-homed writes and allocation traffic.
  double WriteStallCyclesPerByte = 0.05;
  int64_t LeavesPerCore = 16;      ///< target leaf granularity
};

struct SimResult {
  double Seconds = 0;
  double CpuBusyFraction = 0;
  std::vector<double> NodeDramBytes; ///< DRAM bytes served per node
  std::vector<double> LinkBytes;     ///< bytes crossing each link (both dirs)
};

/// Simulates \p W on \p M under \p P. Deterministic.
SimResult simulate(const SimMachine &M, const WorkloadProfile &W,
                   const SimParams &P);

} // namespace manti::sim

#endif // MANTI_SIM_ENGINE_H
