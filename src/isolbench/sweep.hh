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
 * The engine also hosts the per-scenario wall-clock self-profiler:
 * Scenario::run() reports (events, events/sec, peak queue depth) here,
 * benches surface the aggregate on stderr and dump `BENCH_sweep.json`
 * so the perf trajectory is trackable across PRs. Profiling goes to
 * stderr/JSON only — stdout stays deterministic.
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
        // isol: parallel
        tasks.push_back([&out, fn, i] { out[i] = fn(i); });
    run(std::move(tasks), jobs);
    return out;
}

// --- Per-scenario self-profiling -------------------------------------

/**
 * Monotonic wall-clock reading in milliseconds. The single sanctioned
 * profiling clock: wall time only ever feeds stderr summaries and
 * BENCH_sweep.json, never simulated state (isol-lint rule D2 flags any
 * other clock use).
 */
double monotonicMs();

/** Wall-clock profile of one completed Scenario::run(). */
struct ScenarioProfile
{
    std::string name;
    double wall_ms = 0.0;
    uint64_t events = 0;
    double events_per_sec = 0.0;
    uint64_t peak_queue_depth = 0;
    /** Runtime invariant checks performed (0 when checking is off). */
    uint64_t invariant_checks = 0;
    /** Tenants tagged with an adversary profile (chaos coverage). */
    uint64_t adversary_tenants = 0;
    /**
     * Per-cgroup bookkeeping operations inside the gates and elevators
     * (share recomputes, chain charge walks, window/queue scans), summed
     * over all devices. Deterministic event counts — with `events` they
     * give the fleet benches a "bookkeeping share" per scenario showing
     * where gate state handling becomes the scaling bottleneck.
     */
    uint64_t gate_bookkeeping_ops = 0;
};

/** Record one profile (thread-safe; called by Scenario::run()). */
void recordProfile(ScenarioProfile profile);

/** Snapshot of all profiles recorded so far, in completion order. */
std::vector<ScenarioProfile> profiles();

/** Drop all recorded profiles (tests). */
void clearProfiles();

/** Aggregate view over the recorded profiles. */
struct ProfileSummary
{
    uint64_t scenarios = 0;
    double wall_ms = 0.0; //!< summed single-scenario wall time
    uint64_t events = 0;
    double events_per_sec = 0.0; //!< events / summed wall time
    uint64_t peak_queue_depth = 0; //!< max across scenarios
    uint64_t invariant_checks = 0; //!< summed runtime invariant checks
    uint64_t adversary_tenants = 0; //!< summed adversarial tenants
    uint64_t gate_bookkeeping_ops = 0; //!< summed gate bookkeeping work
};

ProfileSummary profileSummary();

/** One-line human-readable summary (benches print this to stderr). */
std::string profileSummaryLine();

/**
 * Write the summary plus per-scenario profiles as JSON (BENCH_sweep.json).
 * Returns false when the file cannot be opened.
 */
bool writeProfileJson(const std::string &path);

} // namespace isol::isolbench::sweep

#endif // ISOL_ISOLBENCH_SWEEP_HH
