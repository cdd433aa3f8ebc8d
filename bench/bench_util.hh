/**
 * @file
 * Shared helpers for the figure/table benchmark harnesses: environment
 * knobs for runtime vs fidelity, supervised-sweep plumbing, and small
 * printing utilities.
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
#include <string>
#include <vector>

#include "common/strings.hh"
#include "common/types.hh"
#include "isolbench/sweep.hh"
#include "sim/invariants.hh"
#include "workload/adversary.hh"

namespace isol::bench
{

/**
 * Adversarial tenant selected with `--adversary` (kNone when absent).
 * Benches that support a chaos tenant read this after parseArgs().
 */
inline workload::AdversaryKind &
adversaryFlag()
{
    static workload::AdversaryKind kind = workload::AdversaryKind::kNone;
    return kind;
}

/** Convenience reader for adversaryFlag(). */
inline workload::AdversaryKind
adversary()
{
    return adversaryFlag();
}

/**
 * Parse the shared bench flags. Unknown arguments abort with a usage
 * message so typos in long sweep invocations fail fast.
 *
 *   --jobs N              sweep worker threads (default: hw concurrency)
 *   --task-timeout-ms N   wall-clock watchdog per task
 *   --task-max-events N   simulated-event budget per task
 *   --resume              skip tasks checkpointed in the run manifest
 *   --only N              run only task index N of every checkpointed sweep
 *   --manifest PATH       manifest file (default <prog>.manifest.json)
 *   --adversary NAME      add a misbehaving tenant (queue-flood, gc-storm,
 *                         square-wave, flush-storm, slow-drain) in benches
 *                         that support one
 *   --check-invariants    enable the runtime invariant checker in every
 *                         scenario of this process
 */
inline void
parseArgs(int argc, char **argv)
{
    namespace sweep = isolbench::sweep;
    sweep::Options opt = sweep::options();
    if (opt.manifest_path.empty()) {
        std::string prog = argv[0];
        size_t slash = prog.find_last_of('/');
        if (slash != std::string::npos)
            prog = prog.substr(slash + 1);
        opt.manifest_path = prog + ".manifest.json";
    }

    auto uintValue = [argv](int argc_, char **argv_, int &i) {
        auto parsed = i + 1 < argc_
                          ? isol::parseUint(argv_[++i])
                          : std::optional<uint64_t>{};
        if (!parsed) {
            std::fprintf(stderr, "%s: bad or missing value for '%s'\n",
                         argv[0], argv_[i]);
            std::exit(2);
        }
        return *parsed;
    };

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0) {
            uint64_t jobs = uintValue(argc, argv, i);
            if (jobs == 0) {
                std::fprintf(stderr, "%s: bad --jobs value\n", argv[0]);
                std::exit(2);
            }
            sweep::setDefaultJobs(static_cast<uint32_t>(jobs));
        } else if (std::strcmp(argv[i], "--task-timeout-ms") == 0) {
            opt.task_timeout_ms =
                static_cast<double>(uintValue(argc, argv, i));
        } else if (std::strcmp(argv[i], "--task-max-events") == 0) {
            opt.max_task_events = uintValue(argc, argv, i);
        } else if (std::strcmp(argv[i], "--resume") == 0) {
            opt.resume = true;
        } else if (std::strcmp(argv[i], "--only") == 0) {
            opt.only = uintValue(argc, argv, i);
        } else if (std::strcmp(argv[i], "--manifest") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: missing value for '--manifest'\n",
                             argv[0]);
                std::exit(2);
            }
            opt.manifest_path = argv[++i];
        } else if (std::strcmp(argv[i], "--adversary") == 0) {
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
            adversaryFlag() = *kind;
        } else if (std::strcmp(argv[i], "--check-invariants") == 0) {
            sim::setCheckInvariantsDefault(true);
        } else {
            std::fprintf(stderr,
                         "%s: unknown argument '%s' (supported: --jobs N"
                         " --task-timeout-ms N"
                         " --task-max-events N --resume --only N"
                         " --manifest PATH --adversary NAME"
                         " --check-invariants)\n", argv[0], argv[i]);
            std::exit(2);
        }
    }

    sweep::setOptions(opt);
    if (opt.resume)
        sweep::loadManifestFile(opt.manifest_path);
}

/**
 * Run a supervised, checkpointed sweep of payload-producing tasks and
 * return the payloads (task order; "" where a task failed or was
 * skipped via --only). Task failures surface in the failure table
 * printed by emitSweepReport(), not as exceptions, so one bad grid
 * point cannot take down a whole figure.
 */
inline std::vector<std::string>
supervisedSweep(const std::string &name,
                const std::vector<isolbench::sweep::Task> &tasks)
{
    std::vector<std::string> payloads;
    isolbench::sweep::supervise(name, tasks, payloads);
    return payloads;
}

/** Join table cells into a checkpointable payload row. */
inline std::string
joinRow(const std::vector<std::string> &cells)
{
    std::string out;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (i > 0)
            out += '\t';
        out += cells[i];
    }
    return out;
}

/** Split a payload row back into table cells. */
inline std::vector<std::string>
splitRow(const std::string &payload)
{
    return isol::splitString(payload, '\t');
}

/**
 * Encode a double as a hexfloat so a checkpointed payload round-trips
 * bit-exactly through the manifest (decimal formatting would not).
 */
inline std::string
hexDouble(double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", value);
    return buf;
}

/** Decode a hexDouble() payload; 0.0 for "" (failed/skipped task). */
inline double
parseHexDouble(const std::string &text)
{
    if (text.empty())
        return 0.0;
    return std::strtod(text.c_str(), nullptr);
}

/**
 * Emit the sweep self-profile and the supervision failure table: a
 * summary on stderr (stdout stays byte-identical across thread counts
 * and across --resume) plus BENCH_sweep.json for cross-PR perf
 * tracking.
 */
inline void
emitSweepReport()
{
    std::fprintf(stderr, "%s\n",
                 isolbench::sweep::profileSummaryLine().c_str());
    std::fputs(isolbench::sweep::failureTable().c_str(), stderr);
    if (!isolbench::sweep::writeProfileJson("BENCH_sweep.json"))
        std::fprintf(stderr, "warning: could not write BENCH_sweep.json\n");
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
