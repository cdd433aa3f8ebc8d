/**
 * @file
 * Heap-allocation counting for zero-allocation hot-path verification.
 *
 * When the build defines ISOL_COUNT_ALLOCS (CMake option, default ON),
 * alloc_hook.cc replaces the global operator new/delete with versions
 * that bump thread-local counters before forwarding to malloc/free. The
 * zero-allocation tests read the counters around a measured region to
 * assert allocations per simulated I/O (or per queue event).
 *
 * Counters are thread-local: a worker thread observes only its own
 * allocations, so parallel sweeps do not perturb the measurement and
 * the counting itself is race-free under TSan.
 *
 * When the hook is compiled out, `allocCountingEnabled()` returns false
 * and the counters read zero; tests skip themselves.
 */

#ifndef ISOL_COMMON_ALLOC_HOOK_HH
#define ISOL_COMMON_ALLOC_HOOK_HH

#include <cstdint>

namespace isol::common
{

/** Snapshot of this thread's heap traffic since the last reset. */
struct AllocCounters
{
    uint64_t allocs = 0; //!< operator new / new[] calls
    uint64_t frees = 0; //!< operator delete / delete[] calls
    uint64_t bytes = 0; //!< total bytes requested from new
};

/** True when the operator-new hook is compiled in (ISOL_COUNT_ALLOCS). */
bool allocCountingEnabled();

/** This thread's counters since thread start / last reset. */
AllocCounters allocCounters();

/** Zero this thread's counters. */
void resetAllocCounters();

} // namespace isol::common

#endif // ISOL_COMMON_ALLOC_HOOK_HH
