#include "isolbench/sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "common/strings.hh"

namespace isol::isolbench::sweep
{

namespace
{

// The sweep engine is the one sanctioned piece of cross-run shared
// state in src/: it coordinates workers, collects profiles, is
// mutex/atomic-protected, and never feeds simulated decisions.

/** CLI/bench override; 0 = resolve automatically. Never read by
 *  simulation code. */
std::atomic<uint32_t> g_jobs_override{0};

/** Set while executing inside a pool worker: nested sweeps go inline.
 *  Per-thread control flow, not simulation state. */
thread_local bool t_in_worker = false;

uint32_t
autoJobs()
{
    if (const char *env = std::getenv("ISOL_JOBS")) {
        if (auto parsed = parseUint(env); parsed && *parsed > 0)
            return static_cast<uint32_t>(*parsed);
    }
    uint32_t hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/** Best-effort what() of a captured exception ("unknown" if opaque). */
std::string
describeException(const std::exception_ptr &error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown non-std exception";
    }
}

std::string
failureSummary(const std::vector<TaskFailure> &failures)
{
    std::string msg = strCat("sweep: ", failures.size(),
                             " tasks failed:");
    for (const TaskFailure &f : failures)
        msg += strCat(" [", f.task, "] ", f.message, ";");
    if (!msg.empty() && msg.back() == ';')
        msg.pop_back();
    return msg;
}

std::mutex g_profile_mutex; //!< protects the profile summary below
// Profiling sink (stderr only); every field folds commutatively, so
// completion order does not matter.
ProfileSummary g_summary;

} // namespace

uint32_t
defaultJobs()
{
    uint32_t override = g_jobs_override.load(std::memory_order_relaxed);
    return override != 0 ? override : autoJobs();
}

void
setDefaultJobs(uint32_t jobs)
{
    g_jobs_override.store(jobs, std::memory_order_relaxed);
}

SweepError::SweepError(std::vector<TaskFailure> failures)
    : std::runtime_error(failureSummary(failures)),
      failures_(std::move(failures))
{
}

void
run(std::vector<std::function<void()>> tasks, uint32_t jobs)
{
    size_t n = tasks.size();
    std::vector<std::exception_ptr> errors(n);
    std::atomic<size_t> next{0};
    auto drain = [&] {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                tasks[i]();
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    uint32_t workers = jobs != 0 ? jobs : defaultJobs();
    if (workers > n)
        workers = static_cast<uint32_t>(n);
    if (workers <= 1 || t_in_worker) {
        drain();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (uint32_t w = 0; w < workers; ++w) {
            pool.emplace_back([&drain] {
                t_in_worker = true;
                drain();
                t_in_worker = false;
            });
        }
        for (std::thread &t : pool)
            t.join();
    }

    std::vector<TaskFailure> failures;
    for (size_t i = 0; i < n; ++i) {
        if (errors[i])
            failures.push_back(
                TaskFailure{i, describeException(errors[i]), errors[i]});
    }
    if (failures.empty())
        return;
    if (failures.size() == 1)
        std::rethrow_exception(failures.front().error);
    throw SweepError(std::move(failures));
}

double
monotonicMs()
{
    // isol-lint: allow(D2): the sanctioned profiling clock; feeds
    // stderr and perfbench host timings only, never simulated state
    auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(
               now.time_since_epoch())
        .count();
}

void
recordProfile(const ScenarioProfile &profile)
{
    std::lock_guard<std::mutex> lock(g_profile_mutex);
    ++g_summary.scenarios;
    g_summary.wall_ms += profile.wall_ms;
    g_summary.events += profile.events;
    if (profile.peak_queue_depth > g_summary.peak_queue_depth)
        g_summary.peak_queue_depth = profile.peak_queue_depth;
}

void
clearProfiles()
{
    std::lock_guard<std::mutex> lock(g_profile_mutex);
    g_summary = ProfileSummary{};
}

ProfileSummary
profileSummary()
{
    std::lock_guard<std::mutex> lock(g_profile_mutex);
    ProfileSummary summary = g_summary;
    if (summary.wall_ms > 0.0) {
        summary.events_per_sec = static_cast<double>(summary.events) /
                                 (summary.wall_ms / 1e3);
    }
    return summary;
}

std::string
profileSummaryLine()
{
    ProfileSummary s = profileSummary();
    return strCat("[sweep] ", s.scenarios, " scenarios, ",
                  s.events, " events in ", formatDouble(s.wall_ms, 1),
                  " ms sim-cpu (", formatDouble(s.events_per_sec / 1e6, 2),
                  " M events/s, peak queue depth ", s.peak_queue_depth,
                  ", jobs=", defaultJobs(), ")");
}

} // namespace isol::isolbench::sweep
