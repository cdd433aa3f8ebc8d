/**
 * @file
 * Sweep engine: runs independent Scenario-style tasks across a thread
 * pool with results collected into pre-sized slots by sweep index, so
 * output is byte-identical to the sequential run for any thread count
 * and completion order.
 *
 * The design is shared-nothing, SPDK-reactor style: every task owns its
 * entire simulated system (Simulator, device models, seeded RNGs) and
 * communicates only through its result slot. Workers pull task indices
 * from one atomic counter — dynamic load balancing with no queues or
 * locks on the hot path. Nested sweeps (a parallelised runner invoked
 * from inside a worker) degrade to sequential execution instead of
 * spawning a second pool, so the thread count stays bounded at the
 * outermost fan-out.
 *
 * A task that throws does not stop the others: every task runs, and
 * afterwards run()/map() rethrow. The simulation is deterministic, so a
 * failed task would fail the same way again; there is nothing to retry
 * or resume, and a bench whose task fails exits non-zero instead of
 * printing a table with rows missing.
 *
 * The engine also hosts the wall-clock self-profiler: Scenario::run()
 * folds (wall time, events, peak queue depth) into one running summary
 * here, and benches print it on stderr. Only the summary is kept, so a
 * long-lived process does not grow with the number of scenarios it
 * runs. Profiling goes to stderr only — stdout stays deterministic.
 */

#ifndef ISOL_ISOLBENCH_SWEEP_HH
#define ISOL_ISOLBENCH_SWEEP_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace isol::isolbench::sweep
{

/** One failed task: its sweep index, message, and original exception. */
struct TaskFailure
{
    size_t task = 0;
    std::string message;
    std::exception_ptr error;
};

/**
 * Thrown by run() when more than one task failed: carries *every*
 * failure (index + what() + original exception_ptr) in task-index
 * order, so a caller sees the full set rather than just the first
 * casualty. A single failure is rethrown as the original exception to
 * preserve its type for existing catch sites.
 */
class SweepError : public std::runtime_error
{
  public:
    explicit SweepError(std::vector<TaskFailure> failures);

    const std::vector<TaskFailure> &failures() const { return failures_; }

  private:
    std::vector<TaskFailure> failures_;
};

/**
 * Worker count used when a runner passes jobs=0: the `ISOL_JOBS`
 * environment variable if set, else std::thread::hardware_concurrency.
 */
uint32_t defaultJobs();

/** Override the default worker count (CLI --jobs; 0 restores auto). */
void setDefaultJobs(uint32_t jobs);

/**
 * Execute every task exactly once on `jobs` workers (0 = defaultJobs())
 * and block until all complete. Tasks must be independent; each writes
 * only state it owns (typically a result slot keyed by its index).
 * Every task runs even if an earlier one throws. Afterwards a single
 * failure is rethrown as the original exception; several failures
 * become one SweepError carrying all of them in task-index order,
 * regardless of thread count.
 */
void run(std::vector<std::function<void()>> tasks, uint32_t jobs = 0);

/**
 * Map `fn(i)` over 0..n-1 in parallel, collecting results by index.
 * R must be default-constructible and movable. Task failures propagate
 * exactly as from run().
 */
template <typename R, typename Fn>
std::vector<R>
map(size_t n, Fn fn, uint32_t jobs = 0)
{
    std::vector<R> out(n);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (size_t i = 0; i < n; ++i)
        tasks.push_back([&out, fn, i] { out[i] = fn(i); });
    run(std::move(tasks), jobs);
    return out;
}

// --- Per-scenario self-profiling -------------------------------------

/**
 * Monotonic wall-clock reading in milliseconds. The single sanctioned
 * profiling clock: wall time only ever feeds stderr summaries and
 * perfbench's host timings, never simulated state (the
 * `ambient_sources` ctest fails on any other clock use).
 */
double monotonicMs();

/** Wall-clock profile of one completed Scenario::run(). */
struct ScenarioProfile
{
    double wall_ms = 0.0;
    uint64_t events = 0;
    uint64_t peak_queue_depth = 0;
};

/** Fold one profile into the summary (thread-safe; Scenario::run()). */
void recordProfile(const ScenarioProfile &profile);

/** Reset the summary to no scenarios (tests). */
void clearProfiles();

/** Aggregate over every profile recorded since the last clear. */
struct ProfileSummary
{
    uint64_t scenarios = 0;
    double wall_ms = 0.0; //!< summed single-scenario wall time
    uint64_t events = 0;
    double events_per_sec = 0.0; //!< events / summed wall time
    uint64_t peak_queue_depth = 0; //!< max across scenarios
};

ProfileSummary profileSummary();

/** One-line human-readable summary (benches print this to stderr). */
std::string profileSummaryLine();

} // namespace isol::isolbench::sweep

#endif // ISOL_ISOLBENCH_SWEEP_HH
