//===- numa/MemoryBanks.h - per-node physical memory banks ---------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-node memory banks, in two placement modes. Both map every block
/// arena straight from the OS (anonymous mmap), never from malloc: the
/// arenas are allocated by whichever vproc thread needs a fresh chunk
/// batch, and malloc would scatter them over per-thread arenas whose
/// freed pages stay resident.
///
/// Simulated (default): arenas that carry the *placement metadata* -- a
/// block allocated "on node 3" is recorded in a page map, and every
/// later consumer (the chunk manager's node affinity, the traffic
/// ledger, the machine model) consults that map exactly as the real
/// system would ask the OS which node backs a page. This is how the
/// recorded topologies run on any machine.
///
/// Bound (GCConfig::BindMemory): when the build carries libnuma
/// (MANTI_NUMA=ON) on a NUMA kernel, each arena is additionally bound
/// to its node's physical bank with mbind before first touch --
/// the page map then *matches* the OS placement, verifiable through
/// move_pages (MemoryBindTest does exactly that). Without libnuma the
/// mode degrades to unbound mappings: still real placement-by-first-
/// touch, same metadata, nothing downstream changes.
///
/// Blocks are allocated at block granularity (a multiple of the page
/// size) and recycled through per-node, per-size free lists, mirroring
/// how the runtime reuses memory without returning it to the OS.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_NUMA_MEMORYBANKS_H
#define MANTI_NUMA_MEMORYBANKS_H

#include "numa/Topology.h"
#include "support/SpinLock.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace manti {

/// Per-node block allocator plus the address-to-node page map.
class MemoryBanks {
public:
  static constexpr std::size_t PageSize = 4096;

  enum class BindMode {
    Simulated, ///< metadata-only placement
    Bound,     ///< arenas mbind'd to their nodes when the host can
  };

  /// \p OsNodeIds maps logical node -> OS node for the Bound mode's
  /// mbind calls (empty = identity); ignored in Simulated mode.
  explicit MemoryBanks(unsigned NumNodes,
                       BindMode Mode = BindMode::Simulated,
                       std::vector<unsigned> OsNodeIds = {});
  ~MemoryBanks();

  MemoryBanks(const MemoryBanks &) = delete;
  MemoryBanks &operator=(const MemoryBanks &) = delete;

  unsigned numNodes() const { return static_cast<unsigned>(Banks.size()); }

  BindMode mode() const { return Mode; }

  /// True when Bound mode can actually mbind: built with libnuma
  /// (MANTI_NUMA=ON) on a NUMA-capable kernel. When false, Bound mode
  /// still mmaps but pages place by first touch.
  static bool canBind();

  /// The OS's answer for which node backs the (touched) page at
  /// \p Addr, via move_pages; -1 when the host cannot tell. Bound-mode
  /// placement is verified by comparing this against nodeOf.
  static int osNodeOf(const void *Addr);

  /// Bytes successfully mbind'd for \p Node (always 0 in Simulated mode
  /// or when canBind() is false).
  uint64_t bytesBound(NodeId Node) const;

  /// Allocates \p Bytes (rounded up to a page multiple) on \p Node,
  /// aligned to \p Align (a power of two >= PageSize; Bytes is rounded up
  /// to a multiple of it). Never returns null; aborts on OOM.
  void *allocBlock(std::size_t Bytes, NodeId Node,
                   std::size_t Align = PageSize);

  /// Returns a block obtained from allocBlock to its node's free list.
  /// \p Bytes and \p Align must match the allocation request.
  void freeBlock(void *Block, std::size_t Bytes,
                 std::size_t Align = PageSize);

  /// \returns the home node of the page containing \p Addr, or -1 if the
  /// address was not allocated from these banks.
  int nodeOf(const void *Addr) const;

  /// Total bytes currently handed out from \p Node (excludes free lists).
  uint64_t bytesInUse(NodeId Node) const;

  /// Total bytes ever reserved from the OS for \p Node.
  uint64_t bytesReserved(NodeId Node) const;

private:
  struct Bank {
    mutable SpinLock Lock;
    /// (size, align) -> stack of recycled blocks of exactly that shape.
    std::map<std::pair<std::size_t, std::size_t>, std::vector<void *>>
        FreeLists;
    uint64_t InUse = 0;
    uint64_t Reserved = 0;
    uint64_t Bound = 0; ///< bytes successfully mbind'd (Bound mode)
  };

  /// One contiguous OS allocation tagged with its home node.
  struct Extent {
    uintptr_t Begin;
    uintptr_t End;
    NodeId Node;
  };

  void *allocFresh(std::size_t Bytes, std::size_t Align, NodeId Node);
  void *mapAligned(std::size_t Bytes, std::size_t Align);

  BindMode Mode;
  std::vector<unsigned> OsNodeIds; ///< logical -> OS node (empty = identity)
  std::vector<Bank> Banks;
  mutable SpinLock ExtentLock;
  std::vector<Extent> Extents; ///< sorted by Begin
};

} // namespace manti

#endif // MANTI_NUMA_MEMORYBANKS_H
