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
 * Supervision keeps a long campaign alive when individual tasks go bad.
 * Each supervised task runs inside a guard that
 *   - enforces per-task budgets: a wall-clock watchdog deadline
 *     (`--task-timeout-ms`) and a simulated-event budget
 *     (`--task-max-events`), polled cooperatively by Scenario::run()
 *     between event chunks so the simulation itself stays untouched;
 *     pool workers inherit the guard of the thread that started the
 *     sweep, so nested fan-outs charge the same budgets;
 *   - converts overruns, std::exception, std::bad_alloc, and the
 *     runAll event-storm guard into a structured TaskError taxonomy
 *     (timeout | exception | invariant_violation | resource_exhausted)
 *     instead of tearing down the sweep.
 * A task runs once: the simulation is deterministic, so a retry would
 * fail the same way. supervise() additionally checkpoints completed
 * tasks (index + payload + digest) into a JSON run manifest written
 * atomically, so `--resume` skips finished work after an interrupt and
 * `--only <index>` re-runs a single task solo. guardedMap() supervises
 * a typed in-memory fan-out (the fairness repeats loop) with guards but
 * no checkpointing; `--only` and `--resume` never apply to it. Every
 * supervised sweep records a SweepReport; benches print the aggregate
 * failure table on stderr next to the self-profiler.
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
#include <optional>
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
 * R must be default-constructible and movable.
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

// --- Supervision: error taxonomy ---------------------------------------

enum class TaskErrorKind : uint8_t
{
    kTimeout, //!< wall-clock watchdog deadline exceeded
    kException, //!< task threw (config error, bug, ...)
    kInvariantViolation, //!< result failed post-run validation
    kResourceExhausted, //!< event budget / storm guard / bad_alloc
};

const char *taskErrorKindName(TaskErrorKind kind);

/** The failure of one supervised task. */
struct TaskError
{
    size_t task = 0;
    TaskErrorKind kind = TaskErrorKind::kException;
    std::string message;
};

/** Thrown by the budget polls inside a guarded task. */
class TaskAbort : public std::runtime_error
{
  public:
    TaskAbort(TaskErrorKind kind, const std::string &msg)
        : std::runtime_error(msg), kind_(kind)
    {
    }

    TaskErrorKind kind() const { return kind_; }

  private:
    TaskErrorKind kind_;
};

/** Classify a captured task exception into the taxonomy. */
TaskError classifyError(size_t task, const std::exception_ptr &error);

// --- Supervision: configuration ----------------------------------------

/** Process-wide supervision policy (set from CLI flags). */
struct Options
{
    /** Wall-clock watchdog per task, ms (0 = no watchdog). */
    double task_timeout_ms = 0.0;

    /** Simulated-event budget per task (0 = no budget). */
    uint64_t max_task_events = 0;

    /** Load the manifest and skip checkpointed tasks. */
    bool resume = false;

    /** Run only this task index in every supervise() sweep. */
    std::optional<uint64_t> only;

    /** Manifest file ("" disables checkpointing). */
    std::string manifest_path;
};

void setOptions(const Options &options);
Options options();

// --- Supervision: reports ----------------------------------------------

/** Outcome of one supervised sweep. */
struct SweepReport
{
    std::string name;
    size_t tasks = 0;
    size_t completed = 0; //!< ran to success in this process
    size_t salvaged = 0; //!< skipped; payload restored from manifest
    size_t skipped = 0; //!< not run because of --only
    size_t failed = 0; //!< ran and failed
    std::vector<TaskError> errors; //!< one per failed task, index order

    bool allOk() const { return failed == 0; }
};

/** Reports of every supervised sweep so far, in execution order. */
std::vector<SweepReport> reports();

/**
 * Multi-line failure table (sweep x error kind x failed x salvaged)
 * plus a totals line, for stderr. Always ends with the totals line; the
 * per-kind rows appear only when something actually went wrong or was
 * salvaged.
 */
std::string failureTable();

// --- Supervised execution ----------------------------------------------

/**
 * A checkpointed task returns its result serialized as the text its
 * caller prints (or re-parses); payloads are what the manifest
 * checkpoints and what --resume restores.
 */
using Task = std::function<std::string()>;

/**
 * Run `tasks` under guards with (when a manifest path is configured)
 * per-task checkpointing. `payloads[i]` receives task i's payload —
 * restored from the manifest when resuming — or "" when the task
 * failed or was skipped via --only. Never throws for task failures:
 * the returned report carries them.
 */
SweepReport supervise(const std::string &sweep_name,
                      const std::vector<Task> &tasks,
                      std::vector<std::string> &payloads,
                      uint32_t jobs = 0);

/**
 * Run every task once under guards, with no checkpointing, --only or
 * --resume. Never throws for task failures: the returned report
 * carries them.
 */
SweepReport runGuarded(const std::string &sweep_name,
                       std::vector<std::function<void()>> tasks,
                       uint32_t jobs = 0);

/** Rethrow a report's failures as a SweepError. */
[[noreturn]] void throwFailures(const SweepReport &report);

/**
 * Supervised typed fan-out for in-memory sweeps (e.g. the fairness
 * repeats loop): guards and error classification, but no
 * checkpointing. R must be default-constructible and movable. Throws
 * SweepError when any task fails — partial statistics would silently
 * skew folded results, so the whole map fails loudly.
 */
template <typename R, typename Fn>
std::vector<R>
guardedMap(const std::string &name, size_t n, Fn fn, uint32_t jobs = 0)
{
    std::vector<R> out(n);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (size_t i = 0; i < n; ++i)
        // isol: parallel
        tasks.push_back([&out, fn, i] { out[i] = fn(i); });
    SweepReport report = runGuarded(name, std::move(tasks), jobs);
    if (!report.allOk())
        throwFailures(report);
    return out;
}

// --- Task guard (used by Scenario::run and tests) -----------------------

/** True when the calling thread executes inside a supervised task. */
bool guardActive();

/**
 * Charge `n` executed simulated events against every budget on this
 * thread's guard chain; throws TaskAbort{resource_exhausted} when a
 * budget is exceeded. No-op outside a guard.
 */
void chargeGuardEvents(uint64_t n);

/**
 * Throw TaskAbort{timeout} when the guard's watchdog deadline passed.
 * Wall time feeds only this error path, never results. No-op outside a
 * guard.
 */
void pollGuardDeadline();

// --- Manifest (exposed for tests) ---------------------------------------

/** One checkpointed task. */
struct ManifestEntry
{
    uint64_t task = 0;
    std::string digest;
    std::string payload;
};

/** Checkpoint state of one sweep. */
struct ManifestSweep
{
    std::string name;
    uint64_t tasks = 0;
    std::vector<ManifestEntry> entries;
};

/** FNV-1a 64-bit digest, 16 hex chars. */
std::string digestOf(const std::string &payload);

/** Serialize sweeps as the manifest JSON document. */
std::string encodeManifest(const std::vector<ManifestSweep> &sweeps);

/** Parse a manifest document; false on malformed input. */
bool decodeManifest(const std::string &text,
                    std::vector<ManifestSweep> &out);

/** Load checkpoints from `path` into the process manifest state. */
bool loadManifestFile(const std::string &path);

/** Drop all supervision state: options, reports, manifest (tests). */
void resetForTest();

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
