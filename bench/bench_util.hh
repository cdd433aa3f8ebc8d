/**
 * @file
 * Shared helpers for the figure/table benchmark harnesses: environment
 * knobs for runtime vs fidelity, the shared bench flags, the sweep
 * self-profile report, and small printing utilities.
 *
 * Environment variables:
 *   ISOL_BENCH_QUICK=1   coarser sweeps and shorter runs (CI-friendly)
 *   ISOL_JOBS=N          sweep worker threads (also --jobs N)
 */

#ifndef ISOL_BENCH_BENCH_UTIL_HH
#define ISOL_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/strings.hh"
#include "common/types.hh"
#include "isolbench/sweep.hh"
#include "sim/invariants.hh"
#include "workload/adversary.hh"

namespace isol::bench
{

/** Wall-clock reading taken when parseArgs() ran (profiling only). */
inline double &
startMs()
{
    static double ms = 0.0;
    return ms;
}

/**
 * Parse the shared bench flags. Unknown arguments abort with a usage
 * message so typos in long sweep invocations fail fast.
 *
 *   --jobs N              sweep worker threads (default: hw concurrency)
 *   --check-invariants    enable the runtime invariant checker in every
 *                         scenario of this process
 *   --adversary NAME      add a misbehaving tenant (queue-flood, gc-storm,
 *                         square-wave, flush-storm, slow-drain); accepted
 *                         only when the bench passes `adversary`, where
 *                         the parsed kind is stored
 */
inline void
parseArgs(int argc, char **argv,
          workload::AdversaryKind *adversary = nullptr)
{
    startMs() = isolbench::sweep::monotonicMs();
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0) {
            auto jobs = i + 1 < argc ? isol::parseUint(argv[++i])
                                     : std::optional<uint64_t>{};
            if (!jobs || *jobs == 0) {
                std::fprintf(stderr, "%s: bad or missing value for "
                             "'--jobs'\n", argv[0]);
                std::exit(2);
            }
            isolbench::sweep::setDefaultJobs(static_cast<uint32_t>(*jobs));
        } else if (adversary != nullptr &&
                   std::strcmp(argv[i], "--adversary") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "%s: missing value for '--adversary'\n",
                             argv[0]);
                std::exit(2);
            }
            auto kind = workload::parseAdversary(argv[++i]);
            if (!kind) {
                std::fprintf(stderr,
                             "%s: unknown adversary '%s' (supported:"
                             " queue-flood gc-storm square-wave"
                             " flush-storm slow-drain none)\n",
                             argv[0], argv[i]);
                std::exit(2);
            }
            *adversary = *kind;
        } else if (std::strcmp(argv[i], "--check-invariants") == 0) {
            sim::setCheckInvariantsDefault(true);
        } else {
            std::fprintf(stderr,
                         "%s: unknown argument '%s' (supported: --jobs N"
                         " --check-invariants%s)\n",
                         argv[0], argv[i],
                         adversary != nullptr ? " --adversary NAME" : "");
            std::exit(2);
        }
    }
}

/**
 * Emit the sweep self-profile on stderr (stdout stays byte-identical
 * across thread counts): the summed task time of every scenario, then
 * the wall time since parseArgs().
 */
inline void
emitSweepReport()
{
    std::fprintf(stderr, "%s, %.1f ms wall\n",
                 isolbench::sweep::profileSummaryLine().c_str(),
                 isolbench::sweep::monotonicMs() - startMs());
}

/** True when quick mode is requested via ISOL_BENCH_QUICK. */
inline bool
quickMode()
{
    const char *env = std::getenv("ISOL_BENCH_QUICK");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** Print a section banner so bench output is easy to navigate. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** Format GiB/s with two decimals. */
inline std::string
gibs(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", value);
    return buf;
}

/** Format microseconds with one decimal. */
inline std::string
micros(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", value);
    return buf;
}

/** Format a ratio as a percentage with one decimal. */
inline std::string
percent(double fraction)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
    return buf;
}

} // namespace isol::bench

#endif // ISOL_BENCH_BENCH_UTIL_HH
