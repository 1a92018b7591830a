//===- support/Compiler.h - portability and hint macros ------------------===//
//
// Part of the manticore-gc project: a reproduction of "Garbage Collection
// for Multicore NUMA Machines" (Auhagen, Bergstrom, Fluet, Reppy, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small set of compiler hint and portability macros used across the
/// project. Follows the spirit of llvm/Support/Compiler.h.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_SUPPORT_COMPILER_H
#define MANTI_SUPPORT_COMPILER_H

#include <cstddef>

#if defined(__GNUC__) || defined(__clang__)
#define MANTI_LIKELY(EXPR) __builtin_expect(static_cast<bool>(EXPR), true)
#define MANTI_UNLIKELY(EXPR) __builtin_expect(static_cast<bool>(EXPR), false)
#define MANTI_NOINLINE __attribute__((noinline))
#define MANTI_ALWAYS_INLINE inline __attribute__((always_inline))
/// Read-prefetch with high temporal locality: the scan loops issue these
/// a few objects ahead of the cursor (read-only; the L1-bound hint suits
/// headers and pointer fields that are touched within a few iterations).
#define MANTI_PREFETCH(ADDR) __builtin_prefetch((ADDR), 0, 3)
#else
#define MANTI_LIKELY(EXPR) (EXPR)
#define MANTI_UNLIKELY(EXPR) (EXPR)
#define MANTI_NOINLINE
#define MANTI_ALWAYS_INLINE inline
#define MANTI_PREFETCH(ADDR) ((void)(ADDR))
#endif

namespace manti {

/// Size, in bytes, assumed for one cache line when padding shared state.
inline constexpr std::size_t CacheLineSize = 64;

/// One spin-wait hint: tells the core this is a busy-wait loop so it can
/// yield pipeline resources to a sibling hyperthread and skip the memory-
/// order mis-speculation flush when the awaited line changes. `pause` on
/// x86, `yield` on AArch64, nothing elsewhere. Its latency varies several-
/// fold between x86 generations, so bound spins by time, not by count.
MANTI_ALWAYS_INLINE void cpuRelax() {
#if (defined(__GNUC__) || defined(__clang__)) &&                              \
    (defined(__x86_64__) || defined(__i386__))
  __builtin_ia32_pause();
#elif (defined(__GNUC__) || defined(__clang__)) && defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

} // namespace manti

#endif // MANTI_SUPPORT_COMPILER_H
