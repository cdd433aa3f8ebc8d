#include "isolbench/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <thread>

#include "common/logging.hh"
#include "common/strings.hh"
#include "isolbench/validate.hh"
#include "sim/invariants.hh"
#include "sim/simulator.hh"
#include "stats/table.hh"

namespace isol::isolbench::sweep
{

namespace
{

// The sweep engine is the one sanctioned piece of cross-run shared
// state in src/: it coordinates workers, supervision and checkpoints,
// collects profiles, is mutex/atomic-protected, and never feeds
// simulated decisions.

/** CLI/bench override; 0 = resolve automatically. */
// isol-lint: allow(D4): engine-wide --jobs override, atomic, never read
// by simulation code
std::atomic<uint32_t> g_jobs_override{0};

/** Set while executing inside a pool worker: nested sweeps go inline. */
// isol-lint: allow(D4): marks pool threads so nested sweeps degrade to
// inline execution; per-thread control flow, not simulation state
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

// isol-lint: allow(D4): protects the options/report/manifest sinks
std::mutex g_state_mutex;
// isol-lint: allow(D4): process-wide supervision policy set from CLI
// flags before any sweep runs
Options g_options;
// isol-lint: allow(D4): report sink (stderr only); recorded in
// execution order
std::vector<SweepReport> g_reports;
// isol-lint: allow(D4): checkpoints loaded from a prior run's manifest
// (salvage source under --resume)
std::map<std::string, ManifestSweep> g_loaded;
// isol-lint: allow(D4): checkpoints accumulated by this process (what
// the manifest writer persists)
std::map<std::string, ManifestSweep> g_current;

/** One event budget shared across a task's (possibly nested) workers. */
struct Budget
{
    std::shared_ptr<std::atomic<uint64_t>> count;
    uint64_t limit = 0;
};

/** Per-thread guard: watchdog deadline plus the budget chain. */
struct GuardState
{
    bool active = false;
    double deadline_ms = 0.0; //!< absolute monotonicMs(); 0 = none
    std::vector<Budget> budgets;
};

// isol-lint: allow(D4): per-thread task-guard context installed by a
// supervised task and copied into nested pool workers; error path only
thread_local GuardState t_guard;

/** Best-effort what() of a captured exception ("unknown" if opaque). */
std::string
describeException(const std::exception_ptr &error)
{
    if (!error)
        return "no exception";
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

// isol-lint: allow(D4): protects the profile sink below
std::mutex g_profile_mutex;
// isol-lint: allow(D4): profiling sink (stderr/JSON only); recorded in
// completion order by design, summaries fold commutatively
std::vector<ScenarioProfile> g_profiles;

void
appendJsonProfile(std::string &out, const ScenarioProfile &p)
{
    out += strCat("    {\"name\": \"", p.name, "\", \"wall_ms\": ",
                  formatDouble(p.wall_ms, 3), ", \"events\": ", p.events,
                  ", \"events_per_sec\": ",
                  formatDouble(p.events_per_sec, 0),
                  ", \"peak_queue_depth\": ", p.peak_queue_depth,
                  ", \"invariant_checks\": ", p.invariant_checks,
                  ", \"adversary_tenants\": ", p.adversary_tenants,
                  ", \"gate_bookkeeping_ops\": ", p.gate_bookkeeping_ops,
                  "}");
}

/**
 * Like run(), but never throws for task failures: returns every
 * failure in task-index order instead.
 */
std::vector<TaskFailure>
runCollect(std::vector<std::function<void()>> tasks, uint32_t jobs)
{
    size_t n = tasks.size();
    if (n == 0)
        return {};

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
        // Hand each worker the starting thread's task guard so its
        // budgets and deadline keep applying across the hop.
        const GuardState guard = t_guard;
        const bool recoverable = sim::recoverableBudgets();
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (uint32_t w = 0; w < workers; ++w) {
            pool.emplace_back([&drain, &guard, recoverable] {
                t_in_worker = true;
                t_guard = guard;
                sim::setRecoverableBudgets(recoverable);
                drain();
                t_in_worker = false;
            });
        }
        for (std::thread &t : pool)
            t.join();
    }

    std::vector<TaskFailure> failures;
    for (size_t i = 0; i < n; ++i) {
        if (errors[i]) {
            failures.push_back(
                TaskFailure{i, describeException(errors[i]), errors[i]});
        }
    }
    return failures;
}

/** Install per-task budgets for the current thread, RAII-scoped. */
class GuardScope
{
  public:
    explicit GuardScope(const Options &opt)
        : saved_(t_guard), saved_recoverable_(sim::recoverableBudgets())
    {
        GuardState next = t_guard;
        next.active = true;
        if (opt.task_timeout_ms > 0.0) {
            double deadline = monotonicMs() + opt.task_timeout_ms;
            next.deadline_ms = next.deadline_ms == 0.0
                                   ? deadline
                                   : std::min(next.deadline_ms, deadline);
        }
        if (opt.max_task_events > 0) {
            next.budgets.push_back(
                Budget{std::make_shared<std::atomic<uint64_t>>(0),
                       opt.max_task_events});
        }
        t_guard = std::move(next);
        sim::setRecoverableBudgets(true);
    }

    ~GuardScope()
    {
        t_guard = saved_;
        sim::setRecoverableBudgets(saved_recoverable_);
    }

    GuardScope(const GuardScope &) = delete;
    GuardScope &operator=(const GuardScope &) = delete;

  private:
    GuardState saved_;
    bool saved_recoverable_;
};

// --- JSON helpers (manifest is the only JSON we parse) ----------------

void
appendJsonString(std::string &out, const std::string &text)
{
    out += '"';
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** Minimal pull-parser over the manifest's own output format. */
struct JsonReader
{
    const std::string &text;
    size_t pos = 0;

    explicit JsonReader(const std::string &t) : text(t) {}

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\n' ||
                text[pos] == '\r' || text[pos] == '\t'))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    peek(char c)
    {
        skipSpace();
        return pos < text.size() && text[pos] == c;
    }

    bool
    readString(std::string &out)
    {
        skipSpace();
        if (pos >= text.size() || text[pos] != '"')
            return false;
        ++pos;
        out.clear();
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                return false;
            char esc = text[pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    return false;
                unsigned value = 0;
                for (int k = 0; k < 4; ++k) {
                    char h = text[pos++];
                    value <<= 4;
                    if (h >= '0' && h <= '9')
                        value |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        value |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        value |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                // The writer only escapes control bytes this way.
                out += static_cast<char>(value & 0xff);
                break;
              }
              default: return false;
            }
        }
        return false;
    }

    bool
    readUint(uint64_t &out)
    {
        skipSpace();
        size_t start = pos;
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9')
            ++pos;
        if (pos == start)
            return false;
        auto parsed = parseUint(text.substr(start, pos - start));
        if (!parsed)
            return false;
        out = *parsed;
        return true;
    }

    /** Skip a primitive value we do not care about (number/string). */
    bool
    skipValue()
    {
        skipSpace();
        if (pos >= text.size())
            return false;
        if (text[pos] == '"') {
            std::string ignored;
            return readString(ignored);
        }
        while (pos < text.size() && text[pos] != ',' &&
               text[pos] != '}' && text[pos] != ']')
            ++pos;
        return true;
    }
};

bool
readManifestEntry(JsonReader &r, ManifestEntry &entry)
{
    if (!r.consume('{'))
        return false;
    while (!r.peek('}')) {
        std::string key;
        if (!r.readString(key) || !r.consume(':'))
            return false;
        bool ok;
        if (key == "task")
            ok = r.readUint(entry.task);
        else if (key == "digest")
            ok = r.readString(entry.digest);
        else if (key == "payload")
            ok = r.readString(entry.payload);
        else
            ok = r.skipValue();
        if (!ok)
            return false;
        if (!r.consume(','))
            break;
    }
    return r.consume('}');
}

bool
readManifestSweep(JsonReader &r, ManifestSweep &sweep)
{
    if (!r.consume('{'))
        return false;
    while (!r.peek('}')) {
        std::string key;
        if (!r.readString(key) || !r.consume(':'))
            return false;
        bool ok = true;
        if (key == "name") {
            ok = r.readString(sweep.name);
        } else if (key == "tasks") {
            ok = r.readUint(sweep.tasks);
        } else if (key == "completed") {
            if (!r.consume('['))
                return false;
            while (!r.peek(']')) {
                ManifestEntry entry;
                if (!readManifestEntry(r, entry))
                    return false;
                sweep.entries.push_back(std::move(entry));
                if (!r.consume(','))
                    break;
            }
            ok = r.consume(']');
        } else {
            ok = r.skipValue();
        }
        if (!ok)
            return false;
        if (!r.consume(','))
            break;
    }
    return r.consume('}');
}

/** Write `text` to `path` atomically (temp file + rename). */
bool
writeFileAtomic(const std::string &path, const std::string &text)
{
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr)
        return false;
    bool ok = std::fputs(text.c_str(), f) >= 0;
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        return false;
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/** Persist g_current; caller holds g_state_mutex. */
void
writeManifestLocked(const std::string &path)
{
    if (path.empty())
        return;
    std::vector<ManifestSweep> sweeps;
    sweeps.reserve(g_current.size());
    for (const auto &[name, sweep] : g_current)
        sweeps.push_back(sweep);
    if (!writeFileAtomic(path, encodeManifest(sweeps)))
        std::fprintf(stderr,
                     "[supervisor] warning: could not write manifest "
                     "%s\n", path.c_str());
}

void
recordReport(const SweepReport &report)
{
    std::lock_guard<std::mutex> lock(g_state_mutex);
    g_reports.push_back(report);
}

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
    std::vector<TaskFailure> failures = runCollect(std::move(tasks), jobs);
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
    // stderr/BENCH_sweep.json only, never simulated state
    auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(
               now.time_since_epoch())
        .count();
}

void
recordProfile(ScenarioProfile profile)
{
    std::lock_guard<std::mutex> lock(g_profile_mutex);
    g_profiles.push_back(std::move(profile));
}

std::vector<ScenarioProfile>
profiles()
{
    std::lock_guard<std::mutex> lock(g_profile_mutex);
    return g_profiles;
}

void
clearProfiles()
{
    std::lock_guard<std::mutex> lock(g_profile_mutex);
    g_profiles.clear();
}

ProfileSummary
profileSummary()
{
    ProfileSummary summary;
    std::lock_guard<std::mutex> lock(g_profile_mutex);
    for (const ScenarioProfile &p : g_profiles) {
        ++summary.scenarios;
        summary.wall_ms += p.wall_ms;
        summary.events += p.events;
        if (p.peak_queue_depth > summary.peak_queue_depth)
            summary.peak_queue_depth = p.peak_queue_depth;
        summary.invariant_checks += p.invariant_checks;
        summary.adversary_tenants += p.adversary_tenants;
        summary.gate_bookkeeping_ops += p.gate_bookkeeping_ops;
    }
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

bool
writeProfileJson(const std::string &path)
{
    ProfileSummary s = profileSummary();
    std::vector<ScenarioProfile> all = profiles();

    std::string out = "{\n";
    out += strCat("  \"jobs\": ", defaultJobs(), ",\n");
    out += strCat("  \"scenarios\": ", s.scenarios, ",\n");
    out += strCat("  \"wall_ms\": ", formatDouble(s.wall_ms, 3), ",\n");
    out += strCat("  \"events\": ", s.events, ",\n");
    out += strCat("  \"events_per_sec\": ",
                  formatDouble(s.events_per_sec, 0), ",\n");
    out += strCat("  \"peak_queue_depth\": ", s.peak_queue_depth, ",\n");
    out += strCat("  \"invariant_checks\": ", s.invariant_checks, ",\n");
    out += strCat("  \"adversary_tenants\": ", s.adversary_tenants,
                  ",\n");
    out += strCat("  \"gate_bookkeeping_ops\": ", s.gate_bookkeeping_ops,
                  ",\n");
    out += "  \"per_scenario\": [\n";
    for (size_t i = 0; i < all.size(); ++i) {
        appendJsonProfile(out, all[i]);
        out += i + 1 < all.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fputs(out.c_str(), f);
    std::fclose(f);
    return true;
}

// --- Supervision ----------------------------------------------------------

const char *
taskErrorKindName(TaskErrorKind kind)
{
    switch (kind) {
      case TaskErrorKind::kTimeout: return "timeout";
      case TaskErrorKind::kException: return "exception";
      case TaskErrorKind::kInvariantViolation:
        return "invariant_violation";
      case TaskErrorKind::kResourceExhausted:
        return "resource_exhausted";
    }
    return "?";
}

TaskError
classifyError(size_t task, const std::exception_ptr &error)
{
    TaskError out;
    out.task = task;
    if (!error) {
        out.message = "no exception";
        return out;
    }
    try {
        std::rethrow_exception(error);
    } catch (const TaskAbort &e) {
        out.kind = e.kind();
        out.message = e.what();
    } catch (const SweepError &e) {
        // A nested sweep failed; inherit the kind of its first failure
        // (e.g. budget aborts racing across nested workers).
        out.kind = TaskErrorKind::kException;
        out.message = e.what();
        if (!e.failures().empty() && e.failures().front().error)
            out.kind = classifyError(task, e.failures().front().error).kind;
    } catch (const sim::BudgetExceeded &e) {
        out.kind = TaskErrorKind::kResourceExhausted;
        out.message = e.what();
    } catch (const validate::InvariantViolation &e) {
        out.kind = TaskErrorKind::kInvariantViolation;
        out.message = e.what();
    } catch (const sim::InvariantViolation &e) {
        // Runtime invariant checker (sim/invariants.hh): same taxonomy
        // bucket as the post-run validators.
        out.kind = TaskErrorKind::kInvariantViolation;
        out.message = e.what();
    } catch (const std::bad_alloc &e) {
        out.kind = TaskErrorKind::kResourceExhausted;
        out.message = strCat("allocation failed: ", e.what());
    } catch (const std::exception &e) {
        out.kind = TaskErrorKind::kException;
        out.message = e.what();
    } catch (...) {
        out.kind = TaskErrorKind::kException;
        out.message = "unknown non-std exception";
    }
    return out;
}

void
setOptions(const Options &options)
{
    std::lock_guard<std::mutex> lock(g_state_mutex);
    g_options = options;
}

Options
options()
{
    std::lock_guard<std::mutex> lock(g_state_mutex);
    return g_options;
}

std::vector<SweepReport>
reports()
{
    std::lock_guard<std::mutex> lock(g_state_mutex);
    return g_reports;
}

std::string
failureTable()
{
    std::vector<SweepReport> all = reports();
    size_t tasks = 0;
    size_t completed = 0;
    size_t salvaged = 0;
    size_t failed = 0;
    bool any_rows = false;
    for (const SweepReport &r : all) {
        tasks += r.tasks;
        completed += r.completed;
        salvaged += r.salvaged;
        failed += r.failed;
        any_rows = any_rows || r.failed > 0 || r.salvaged > 0;
    }

    std::string out;
    if (any_rows) {
        stats::Table table({"sweep", "error kind", "failed", "salvaged"});
        for (const SweepReport &r : all) {
            if (r.failed == 0 && r.salvaged == 0)
                continue;
            constexpr TaskErrorKind kKinds[] = {
                TaskErrorKind::kTimeout, TaskErrorKind::kException,
                TaskErrorKind::kInvariantViolation,
                TaskErrorKind::kResourceExhausted};
            bool printed = false;
            for (TaskErrorKind kind : kKinds) {
                size_t errors = static_cast<size_t>(std::count_if(
                    r.errors.begin(), r.errors.end(),
                    [kind](const TaskError &e) { return e.kind == kind; }));
                if (errors == 0)
                    continue;
                table.addRow({r.name, taskErrorKindName(kind),
                              strCat(errors), strCat(r.salvaged)});
                printed = true;
            }
            if (!printed)
                table.addRow({r.name, "-", "0", strCat(r.salvaged)});
        }
        out += table.toAligned();
    }
    out += strCat("[supervisor] ", all.size(), " sweeps, ", tasks,
                  " tasks: ", completed, " completed, ", salvaged,
                  " salvaged, ", failed, " failed\n");
    return out;
}

SweepReport
supervise(const std::string &sweep_name, const std::vector<Task> &tasks,
          std::vector<std::string> &payloads, uint32_t jobs)
{
    Options opt = options();
    size_t n = tasks.size();
    SweepReport report;
    report.name = sweep_name;
    report.tasks = n;
    payloads.assign(n, std::string());
    const bool checkpoint = !opt.manifest_path.empty();

    std::vector<char> done(n, 0);

    // Salvage checkpointed results when resuming. A digest or shape
    // mismatch silently re-runs the task — stale data must never win.
    if (checkpoint && opt.resume) {
        std::lock_guard<std::mutex> lock(g_state_mutex);
        auto it = g_loaded.find(sweep_name);
        if (it != g_loaded.end() && it->second.tasks == n) {
            for (const ManifestEntry &entry : it->second.entries) {
                if (entry.task >= n || done[entry.task] != 0)
                    continue;
                if (digestOf(entry.payload) != entry.digest)
                    continue;
                payloads[entry.task] = entry.payload;
                done[entry.task] = 1;
                ++report.salvaged;
            }
        }
    }

    if (checkpoint) {
        // (Re)open this sweep's manifest section with what survived.
        std::lock_guard<std::mutex> lock(g_state_mutex);
        ManifestSweep &sweep = g_current[sweep_name];
        sweep.name = sweep_name;
        sweep.tasks = n;
        sweep.entries.clear();
        for (size_t i = 0; i < n; ++i) {
            if (done[i] != 0)
                sweep.entries.push_back(
                    ManifestEntry{i, digestOf(payloads[i]),
                                  payloads[i]});
        }
        writeManifestLocked(opt.manifest_path);
    }

    std::vector<size_t> pending;
    for (size_t i = 0; i < n; ++i) {
        if (done[i] != 0)
            continue;
        if (opt.only && *opt.only != i) {
            ++report.skipped;
            continue;
        }
        pending.push_back(i);
    }

    std::vector<std::function<void()>> round;
    round.reserve(pending.size());
    for (size_t i : pending) {
        round.push_back([&tasks, &payloads, &opt, &sweep_name, i,
                         checkpoint] {
            std::string payload;
            {
                GuardScope guard(opt);
                payload = tasks[i]();
            }
            payloads[i] = std::move(payload);
            if (checkpoint) {
                std::lock_guard<std::mutex> lock(g_state_mutex);
                ManifestSweep &sweep = g_current[sweep_name];
                sweep.entries.push_back(
                    ManifestEntry{i, digestOf(payloads[i]), payloads[i]});
                writeManifestLocked(opt.manifest_path);
            }
        });
    }
    for (const TaskFailure &f : runCollect(std::move(round), jobs))
        report.errors.push_back(classifyError(pending[f.task], f.error));
    report.failed = report.errors.size();
    report.completed = pending.size() - report.failed;
    recordReport(report);
    return report;
}

SweepReport
runGuarded(const std::string &sweep_name,
           std::vector<std::function<void()>> tasks, uint32_t jobs)
{
    Options opt = options();
    SweepReport report;
    report.name = sweep_name;
    report.tasks = tasks.size();
    for (std::function<void()> &task : tasks) {
        task = [&opt, body = std::move(task)] {
            GuardScope guard(opt);
            body();
        };
    }
    for (const TaskFailure &f : runCollect(std::move(tasks), jobs))
        report.errors.push_back(classifyError(f.task, f.error));
    report.failed = report.errors.size();
    report.completed = report.tasks - report.failed;
    recordReport(report);
    return report;
}

void
throwFailures(const SweepReport &report)
{
    std::vector<TaskFailure> failures;
    for (const TaskError &e : report.errors) {
        failures.push_back(TaskFailure{
            e.task, strCat(taskErrorKindName(e.kind), ": ", e.message),
            nullptr});
    }
    throw SweepError(std::move(failures));
}

bool
guardActive()
{
    return t_guard.active;
}

void
chargeGuardEvents(uint64_t n)
{
    if (!t_guard.active || n == 0)
        return;
    for (const Budget &budget : t_guard.budgets) {
        uint64_t total =
            budget.count->fetch_add(n, std::memory_order_relaxed) + n;
        if (budget.limit != 0 && total > budget.limit) {
            throw TaskAbort(
                TaskErrorKind::kResourceExhausted,
                strCat("simulated-event budget exceeded: ", total,
                       " events > limit ", budget.limit));
        }
    }
}

void
pollGuardDeadline()
{
    if (!t_guard.active || t_guard.deadline_ms == 0.0)
        return;
    double now = monotonicMs();
    if (now > t_guard.deadline_ms) {
        throw TaskAbort(
            TaskErrorKind::kTimeout,
            strCat("watchdog deadline exceeded by ",
                   formatDouble(now - t_guard.deadline_ms, 1), " ms"));
    }
}

std::string
digestOf(const std::string &payload)
{
    uint64_t h = 1469598103934665603ull;
    for (char c : payload) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
encodeManifest(const std::vector<ManifestSweep> &sweeps)
{
    std::string out = "{\n  \"version\": 1,\n";
    out += strCat("  \"written_ms\": ",
                  formatDouble(monotonicMs(), 3), ",\n");
    out += "  \"sweeps\": [\n";
    for (size_t s = 0; s < sweeps.size(); ++s) {
        const ManifestSweep &sweep = sweeps[s];
        out += "    {\"name\": ";
        appendJsonString(out, sweep.name);
        out += strCat(", \"tasks\": ", sweep.tasks,
                      ", \"completed\": [\n");
        std::vector<ManifestEntry> entries = sweep.entries;
        std::sort(entries.begin(), entries.end(),
                  [](const ManifestEntry &a, const ManifestEntry &b) {
                      return a.task < b.task;
                  });
        for (size_t e = 0; e < entries.size(); ++e) {
            out += strCat("      {\"task\": ", entries[e].task,
                          ", \"digest\": ");
            appendJsonString(out, entries[e].digest);
            out += ", \"payload\": ";
            appendJsonString(out, entries[e].payload);
            out += "}";
            out += e + 1 < entries.size() ? ",\n" : "\n";
        }
        out += "    ]}";
        out += s + 1 < sweeps.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

bool
decodeManifest(const std::string &text, std::vector<ManifestSweep> &out)
{
    out.clear();
    JsonReader r(text);
    if (!r.consume('{'))
        return false;
    while (!r.peek('}')) {
        std::string key;
        if (!r.readString(key) || !r.consume(':'))
            return false;
        bool ok = true;
        if (key == "sweeps") {
            if (!r.consume('['))
                return false;
            while (!r.peek(']')) {
                ManifestSweep sweep;
                if (!readManifestSweep(r, sweep))
                    return false;
                out.push_back(std::move(sweep));
                if (!r.consume(','))
                    break;
            }
            ok = r.consume(']');
        } else {
            ok = r.skipValue();
        }
        if (!ok)
            return false;
        if (!r.consume(','))
            break;
    }
    return r.consume('}');
}

bool
loadManifestFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return false;
    std::string text;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);

    std::vector<ManifestSweep> sweeps;
    if (!decodeManifest(text, sweeps)) {
        std::fprintf(stderr,
                     "[supervisor] warning: malformed manifest %s "
                     "ignored\n", path.c_str());
        return false;
    }
    std::lock_guard<std::mutex> lock(g_state_mutex);
    for (ManifestSweep &sweep : sweeps)
        g_loaded[sweep.name] = std::move(sweep);
    return true;
}

void
resetForTest()
{
    std::lock_guard<std::mutex> lock(g_state_mutex);
    g_options = Options{};
    g_reports.clear();
    g_loaded.clear();
    g_current.clear();
}

} // namespace isol::isolbench::sweep
