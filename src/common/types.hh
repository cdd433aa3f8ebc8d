/**
 * @file
 * Fundamental types and unit helpers shared by every module.
 *
 * The simulator measures time in integer nanoseconds (SimTime) and data in
 * bytes (uint64_t). The helpers below keep call sites readable:
 * `4 * KiB`, `usToNs(75)`, `bytesPerSecToMiBs(...)`.
 */

#ifndef ISOL_COMMON_TYPES_HH
#define ISOL_COMMON_TYPES_HH

#include <cstdint>
#include <limits>
#include <string>

namespace isol
{

/** Simulated time in nanoseconds since simulation start. */
using SimTime = int64_t;

/** Sentinel for "no deadline / infinitely far in the future". */
constexpr SimTime kSimTimeMax = std::numeric_limits<SimTime>::max();

/** Data-size units (binary prefixes, bytes). */
constexpr uint64_t KiB = 1024ull;
constexpr uint64_t MiB = 1024ull * KiB;
constexpr uint64_t GiB = 1024ull * MiB;

/** Time-unit conversions to nanoseconds. */
constexpr SimTime nsToNs(int64_t ns) { return ns; }
constexpr SimTime usToNs(int64_t us) { return us * 1000ll; }
constexpr SimTime msToNs(int64_t ms) { return ms * 1000'000ll; }
constexpr SimTime secToNs(int64_t s) { return s * 1000'000'000ll; }
constexpr SimTime secToNs(double s)
{
    return static_cast<SimTime>(s * 1e9);
}

/** Nanoseconds back to floating-point convenience units. */
constexpr double nsToUs(SimTime t) { return static_cast<double>(t) / 1e3; }
constexpr double nsToMs(SimTime t) { return static_cast<double>(t) / 1e6; }
constexpr double nsToSec(SimTime t) { return static_cast<double>(t) / 1e9; }

/** Convert a byte count transferred over a duration into MiB/s. */
inline double
bytesOverNsToMiBs(uint64_t bytes, SimTime dur_ns)
{
    if (dur_ns <= 0)
        return 0.0;
    return static_cast<double>(bytes) / static_cast<double>(MiB) /
           nsToSec(dur_ns);
}

/** Convert a byte count transferred over a duration into GiB/s. */
inline double
bytesOverNsToGiBs(uint64_t bytes, SimTime dur_ns)
{
    if (dur_ns <= 0)
        return 0.0;
    return static_cast<double>(bytes) / static_cast<double>(GiB) /
           nsToSec(dur_ns);
}

/** I/O direction. */
enum class OpType : uint8_t { kRead, kWrite };

/** Spatial access pattern of a request stream. */
enum class AccessPattern : uint8_t { kRandom, kSequential };

} // namespace isol

#endif // ISOL_COMMON_TYPES_HH
