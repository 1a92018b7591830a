//===- sim/Workload.h - workload profiles for the machine model -----------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload profile describes one of the paper's benchmarks as a
/// sequence of phases over named data regions. A parallel phase is a
/// range of elements processed fork-join style with work stealing; each
/// element costs CPU cycles, streams bytes from data regions, and
/// allocates in the executing vproc's local heap (which charges GC
/// copying work and local-heap memory traffic whose placement depends on
/// the page-allocation policy -- the Section 4.3 experiment).
///
/// Region placement kinds:
///  * SharedByVProc0 -- allocated once by the main vproc (SMVM's matrix
///    and vector, the Barnes-Hut tree, DMM's inputs). Under the *local*
///    policy all its pages land on vproc 0's node, which is exactly why
///    shared-data benchmarks saturate one node's links at scale; under
///    *interleaved* they spread; under *single-node* they sit on node 0.
///  * PartitionedFirstTouch -- touched first by whichever vproc computes
///    that part (body arrays, output image, quicksort's ropes). Under
///    the local policy these pages distribute with the computation.
///
/// The profiles' constants (cycles and bytes per element) are
/// calibrated, not measured from the paper's testbed.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_SIM_WORKLOAD_H
#define MANTI_SIM_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

namespace manti::sim {

enum class PlacementKind {
  SharedByVProc0,
  PartitionedFirstTouch,
};

struct RegionSpec {
  std::string Name;
  double Bytes;
  PlacementKind Placement;
};

/// One stream of reads from a region during a phase.
struct AccessSpec {
  unsigned Region;        ///< index into WorkloadProfile::Regions
  double BytesPerElem;    ///< demanded bytes before cache filtering
  /// Gather (pointer-chasing / random) access: cache-resident shared
  /// data still pays remote cache-probe stalls when read from another
  /// node (SMVM's vector, the Intel-resident CSR arrays).
  bool Gather = false;
};

struct PhaseSpec {
  std::string Name;
  int64_t NumElems = 1;
  /// Minimum elements per leaf; the engine also caps leaf counts.
  int64_t MinGrain = 1;
  /// Fixed sequential cycles on vproc 0 before the parallel part (scan
  /// combines, fork-tree setup, join teardown).
  double SeqSetupCycles = 0;
  double CpuCyclesPerElem = 0;
  std::vector<AccessSpec> Reads;
  /// Output bytes written per element (to the region named, charged as
  /// core-to-home traffic).
  std::vector<AccessSpec> Writes;
  /// Heap allocation per element (drives GC cpu + local-heap traffic).
  double AllocBytesPerElem = 0;
  /// True when the phase runs on a single core (the paper's sequential
  /// portions, e.g. Barnes-Hut tree building).
  bool Sequential = false;
};

struct WorkloadProfile {
  std::string Name;
  std::vector<RegionSpec> Regions;
  std::vector<PhaseSpec> Phases;
  unsigned Repeats = 1; ///< whole phase list repeats (e.g. BH iterations)
};

/// The five benchmarks of Section 4.1 at the paper's input sizes.
WorkloadProfile profileDmm();        ///< 600 x 600 dense multiply
WorkloadProfile profileRaytracer();  ///< 512 x 512 image
WorkloadProfile profileQuicksort();  ///< 10,000,000 integers
WorkloadProfile profileBarnesHut();  ///< 400,000 bodies, 20 iterations
WorkloadProfile profileSmvm();       ///< 1,091,362 nnz / 16,614 vector

/// All five, in the order the paper's figures list them.
std::vector<WorkloadProfile> allProfiles();

} // namespace manti::sim

#endif // MANTI_SIM_WORKLOAD_H
