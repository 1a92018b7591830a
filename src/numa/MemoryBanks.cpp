//===- numa/MemoryBanks.cpp -----------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "numa/MemoryBanks.h"

#include "numa/NumaOS.h"
#include "support/Assert.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <mutex>
#include <utility>

using namespace manti;

MemoryBanks::MemoryBanks(unsigned NumNodes, BindMode Mode,
                         std::vector<unsigned> OsNodeIds)
    : Mode(Mode), OsNodeIds(std::move(OsNodeIds)), Banks(NumNodes) {
  MANTI_CHECK(NumNodes > 0, "memory banks need at least one node");
  MANTI_CHECK(this->OsNodeIds.empty() || this->OsNodeIds.size() == NumNodes,
              "OS node map must cover every node");
}

MemoryBanks::~MemoryBanks() {
  std::lock_guard<SpinLock> Lock(ExtentLock);
  for (const Extent &E : Extents)
    numaos::unmapPages(reinterpret_cast<void *>(E.Begin), E.End - E.Begin);
}

bool MemoryBanks::canBind() { return numaos::available(); }

int MemoryBanks::osNodeOf(const void *Addr) {
  return numaos::osNodeOfPage(Addr);
}

uint64_t MemoryBanks::bytesBound(NodeId Node) const {
  const Bank &B = Banks[Node];
  std::lock_guard<SpinLock> Lock(B.Lock);
  return B.Bound;
}

/// mmap is page-granular; for larger alignments over-map by Align and
/// trim the head and tail back to the kernel so the extent is exactly
/// the aligned block.
void *MemoryBanks::mapAligned(std::size_t Bytes, std::size_t Align) {
  if (Align <= PageSize)
    return numaos::mapPages(Bytes);
  void *Raw = numaos::mapPages(Bytes + Align);
  if (!Raw)
    return nullptr;
  uintptr_t Base = reinterpret_cast<uintptr_t>(Raw);
  uintptr_t Aligned = alignTo(Base, Align);
  if (Aligned != Base)
    numaos::unmapPages(Raw, Aligned - Base);
  std::size_t Tail = (Base + Bytes + Align) - (Aligned + Bytes);
  if (Tail)
    numaos::unmapPages(reinterpret_cast<void *>(Aligned + Bytes), Tail);
  return reinterpret_cast<void *>(Aligned);
}

void *MemoryBanks::allocFresh(std::size_t Bytes, std::size_t Align,
                              NodeId Node) {
  void *Mem = mapAligned(Bytes, Align);
  MANTI_CHECK(Mem, "out of memory in MemoryBanks (mmap)");
  bool Bound = false;
  if (Mode == BindMode::Bound) {
    // Bind before first touch so every page faults in on its home
    // node's physical bank. Failure (no libnuma, UMA kernel, offlined
    // node) leaves a plain first-touch mapping -- the degradation mode.
    unsigned OsNode = OsNodeIds.empty() ? Node : OsNodeIds[Node];
    Bound = numaos::bindToOsNode(Mem, Bytes, OsNode);
  }
  {
    // Several vprocs may register fresh chunks on one node at once.
    Bank &B = Banks[Node];
    std::lock_guard<SpinLock> Lock(B.Lock);
    B.Reserved += Bytes;
    if (Bound)
      B.Bound += Bytes;
  }

  uintptr_t Begin = reinterpret_cast<uintptr_t>(Mem);
  Extent E{Begin, Begin + Bytes, Node};
  std::lock_guard<SpinLock> Lock(ExtentLock);
  auto It = std::lower_bound(
      Extents.begin(), Extents.end(), E,
      [](const Extent &A, const Extent &B) { return A.Begin < B.Begin; });
  Extents.insert(It, E);
  return Mem;
}

void *MemoryBanks::allocBlock(std::size_t Bytes, NodeId Node,
                              std::size_t Align) {
  MANTI_CHECK(Node < Banks.size(), "allocBlock: bad node");
  MANTI_CHECK(Align >= PageSize && isPowerOf2(Align),
              "alignment must be a power of two >= the page size");
  Bytes = alignTo(alignTo(Bytes, PageSize), Align);
  Bank &B = Banks[Node];
  {
    std::lock_guard<SpinLock> Lock(B.Lock);
    auto It = B.FreeLists.find({Bytes, Align});
    if (It != B.FreeLists.end() && !It->second.empty()) {
      void *Block = It->second.back();
      It->second.pop_back();
      B.InUse += Bytes;
      return Block;
    }
    B.InUse += Bytes;
  }
  return allocFresh(Bytes, Align, Node);
}

void MemoryBanks::freeBlock(void *Block, std::size_t Bytes,
                            std::size_t Align) {
  Bytes = alignTo(alignTo(Bytes, PageSize), Align);
  int Node = nodeOf(Block);
  MANTI_CHECK(Node >= 0, "freeBlock: block not owned by these banks");
  Bank &B = Banks[static_cast<unsigned>(Node)];
  std::lock_guard<SpinLock> Lock(B.Lock);
  B.FreeLists[{Bytes, Align}].push_back(Block);
  B.InUse -= Bytes;
}

int MemoryBanks::nodeOf(const void *Addr) const {
  uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
  std::lock_guard<SpinLock> Lock(ExtentLock);
  // Find the first extent with Begin > A, then step back.
  auto It = std::upper_bound(
      Extents.begin(), Extents.end(), A,
      [](uintptr_t Value, const Extent &E) { return Value < E.Begin; });
  if (It == Extents.begin())
    return -1;
  --It;
  if (A < It->End)
    return static_cast<int>(It->Node);
  return -1;
}

uint64_t MemoryBanks::bytesInUse(NodeId Node) const {
  const Bank &B = Banks[Node];
  std::lock_guard<SpinLock> Lock(B.Lock);
  return B.InUse;
}

uint64_t MemoryBanks::bytesReserved(NodeId Node) const {
  const Bank &B = Banks[Node];
  std::lock_guard<SpinLock> Lock(B.Lock);
  return B.Reserved;
}
