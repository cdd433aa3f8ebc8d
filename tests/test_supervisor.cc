/**
 * @file
 * Tests for the sweep engine's supervision: error taxonomy, watchdog
 * and event-budget guards, result validation, manifest round-trip, and
 * the --resume / --only flows.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/strings.hh"
#include "isolbench/scenario.hh"
#include "isolbench/sweep.hh"
#include "isolbench/validate.hh"
#include "sim/simulator.hh"

namespace isol::isolbench
{
namespace
{

/** Fresh supervision state plus a per-test manifest path. */
class SupervisorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sweep::resetForTest();
        manifest_path_ = strCat(::testing::TempDir(), "isol_supervisor_",
                                ::testing::UnitTest::GetInstance()
                                    ->current_test_info()
                                    ->name(),
                                ".manifest.json");
        std::remove(manifest_path_.c_str());
    }

    void
    TearDown() override
    {
        std::remove(manifest_path_.c_str());
        sweep::resetForTest();
    }

    sweep::Options
    checkpointed() const
    {
        sweep::Options opt;
        opt.manifest_path = manifest_path_;
        return opt;
    }

    std::string manifest_path_;
};

TEST_F(SupervisorTest, ErrorKindNames)
{
    EXPECT_STREQ(sweep::taskErrorKindName(sweep::TaskErrorKind::kTimeout),
                 "timeout");
    EXPECT_STREQ(sweep::taskErrorKindName(sweep::TaskErrorKind::kException),
                 "exception");
    EXPECT_STREQ(
        sweep::taskErrorKindName(sweep::TaskErrorKind::kInvariantViolation),
        "invariant_violation");
    EXPECT_STREQ(
        sweep::taskErrorKindName(sweep::TaskErrorKind::kResourceExhausted),
        "resource_exhausted");
}

std::exception_ptr
capture(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (...) {
        return std::current_exception();
    }
    return nullptr;
}

TEST_F(SupervisorTest, ClassifyErrorTaxonomy)
{
    auto kind_of = [](const std::function<void()> &fn) {
        return sweep::classifyError(0, capture(fn)).kind;
    };
    EXPECT_EQ(kind_of([] {
                  throw sweep::TaskAbort(sweep::TaskErrorKind::kTimeout,
                                       "late");
              }),
              sweep::TaskErrorKind::kTimeout);
    EXPECT_EQ(kind_of([] { throw sim::BudgetExceeded("storm"); }),
              sweep::TaskErrorKind::kResourceExhausted);
    EXPECT_EQ(kind_of([] {
                  throw validate::InvariantViolation("bad result");
              }),
              sweep::TaskErrorKind::kInvariantViolation);
    EXPECT_EQ(kind_of([] { throw std::bad_alloc(); }),
              sweep::TaskErrorKind::kResourceExhausted);
    EXPECT_EQ(kind_of([] { fatal("config error"); }),
              sweep::TaskErrorKind::kException);
    EXPECT_EQ(kind_of([] { throw 42; }),
              sweep::TaskErrorKind::kException);

    sweep::TaskError err =
        sweep::classifyError(7, capture([] { fatal("boom"); }));
    EXPECT_EQ(err.task, 7u);
    EXPECT_EQ(err.message, "boom");
}

TEST_F(SupervisorTest, FailingTaskReportedOnceAndSweepCompletes)
{
    sweep::setOptions(checkpointed());
    std::atomic<uint32_t> broken_runs{0};
    std::vector<sweep::Task> tasks = {
        []() -> std::string { return "ok"; },
        [&broken_runs]() -> std::string {
            ++broken_runs;
            fatal("always broken");
            return "";
        },
        []() -> std::string { return "also ok"; },
    };
    std::vector<std::string> payloads;
    sweep::SweepReport report =
        sweep::supervise("failing-sweep", tasks, payloads, 2);
    EXPECT_FALSE(report.allOk());
    EXPECT_EQ(broken_runs.load(), 1u) << "a failed task must not re-run";
    EXPECT_EQ(report.completed, 2u);
    EXPECT_EQ(report.failed, 1u);
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].task, 1u);
    EXPECT_EQ(report.errors[0].message, "always broken");
    EXPECT_EQ(payloads[0], "ok");
    EXPECT_EQ(payloads[1], "");
    EXPECT_EQ(payloads[2], "also ok");

    std::string table = sweep::failureTable();
    EXPECT_NE(table.find("failing-sweep"), std::string::npos);
    EXPECT_NE(table.find("exception"), std::string::npos);
    EXPECT_NE(table.find("2 completed"), std::string::npos);
    EXPECT_NE(table.find("1 failed"), std::string::npos);
}

TEST_F(SupervisorTest, WatchdogDeadlineFiresAsTimeout)
{
    sweep::Options opt;
    opt.task_timeout_ms = 5.0;
    opt.manifest_path.clear();
    sweep::setOptions(opt);

    sweep::SweepReport report = sweep::runGuarded(
        "watchdog-sweep",
        {[] {
            EXPECT_TRUE(sweep::guardActive());
            for (int i = 0; i < 100; ++i) {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                sweep::pollGuardDeadline();
            }
        }},
        1);
    EXPECT_EQ(report.failed, 1u);
    ASSERT_FALSE(report.errors.empty());
    EXPECT_EQ(report.errors[0].kind, sweep::TaskErrorKind::kTimeout);
    EXPECT_NE(report.errors[0].message.find("watchdog deadline"),
              std::string::npos);
}

TEST_F(SupervisorTest, EventBudgetStopsRunawayScenario)
{
    sweep::Options opt;
    opt.max_task_events = 20000;
    opt.manifest_path.clear();
    sweep::setOptions(opt);

    sweep::SweepReport report = sweep::runGuarded(
        "budget-sweep",
        {[] {
            ScenarioConfig cfg;
            cfg.name = "budget-test";
            cfg.num_cores = 2;
            cfg.duration = msToNs(400);
            cfg.warmup = msToNs(50);
            Scenario scenario(cfg);
            scenario.addApp(workload::beApp("be", cfg.duration), "be");
            scenario.run();
        }},
        1);
    EXPECT_EQ(report.failed, 1u);
    ASSERT_FALSE(report.errors.empty());
    EXPECT_EQ(report.errors[0].kind,
              sweep::TaskErrorKind::kResourceExhausted);
    EXPECT_NE(report.errors[0].message.find("budget"),
              std::string::npos);
}

TEST_F(SupervisorTest, StormGuardRecoverableUnderSupervision)
{
    sweep::Options opt;
    opt.manifest_path.clear();
    sweep::setOptions(opt);

    // A self-rescheduling event never drains the queue; runAll's storm
    // guard must surface as a recoverable resource_exhausted error when
    // supervised (unsupervised it calls fatal()).
    sweep::SweepReport report = sweep::runGuarded(
        "storm-sweep",
        {[] {
            sim::Simulator simulator;
            std::function<void()> respawn = [&] {
                simulator.after(10, [&respawn] { respawn(); });
            };
            respawn();
            simulator.runAll(5000);
        }},
        1);
    EXPECT_EQ(report.failed, 1u);
    ASSERT_FALSE(report.errors.empty());
    EXPECT_EQ(report.errors[0].kind,
              sweep::TaskErrorKind::kResourceExhausted);
    EXPECT_NE(report.errors[0].message.find("event storm"),
              std::string::npos);
}

TEST_F(SupervisorTest, DoctoredResultsFailValidation)
{
    std::vector<validate::Issue> issues;
    // completed > submitted.
    validate::checkConservation(issues, "nvme0", 100, 150, 0, 64);
    // non-monotone percentiles.
    validate::checkPercentiles(issues, "app", 500, 400, 900);
    // negative throughput.
    validate::checkThroughput(issues, "agg", -1.0);
    // utilisation above 1.
    validate::checkRatio(issues, "cpu", 1.5);
    ASSERT_EQ(issues.size(), 4u);

    try {
        validate::enforce(issues, "doctored");
        FAIL() << "expected InvariantViolation";
    } catch (const validate::InvariantViolation &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("doctored"), std::string::npos);
        EXPECT_NE(what.find("io-conservation"), std::string::npos);
        EXPECT_NE(what.find("latency-percentiles"), std::string::npos);
    }

    std::vector<validate::Issue> clean;
    validate::checkConservation(clean, "nvme0", 100, 90, 5, 64);
    validate::checkPercentiles(clean, "app", 100, 200, 300);
    validate::checkThroughput(clean, "agg", 2.5);
    validate::checkRatio(clean, "cpu", 0.8);
    EXPECT_TRUE(clean.empty());
    validate::enforce(clean, "clean"); // must not throw

    // Supervised classification of a validation failure.
    sweep::Options opt;
    opt.manifest_path.clear();
    sweep::setOptions(opt);
    sweep::SweepReport report = sweep::runGuarded(
        "invariant-sweep",
        {[] {
            std::vector<validate::Issue> bad;
            validate::checkThroughput(bad, "agg", -2.0);
            validate::enforce(bad, "doctored-task");
        }},
        1);
    ASSERT_FALSE(report.errors.empty());
    EXPECT_EQ(report.errors[0].kind,
              sweep::TaskErrorKind::kInvariantViolation);
}

TEST_F(SupervisorTest, ManifestRoundTripEscapesPayloads)
{
    sweep::ManifestSweep sweep;
    sweep.name = "round\ttrip \"sweep\"\n";
    sweep.tasks = 3;
    std::string payload = "cell1\tcell2\nline \"quoted\" \\slash\x01";
    sweep.entries.push_back(
        sweep::ManifestEntry{0, sweep::digestOf(payload), payload});
    sweep.entries.push_back(sweep::ManifestEntry{2, sweep::digestOf(""), ""});

    std::string text = sweep::encodeManifest({sweep});
    std::vector<sweep::ManifestSweep> decoded;
    ASSERT_TRUE(sweep::decodeManifest(text, decoded));
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0].name, sweep.name);
    EXPECT_EQ(decoded[0].tasks, 3u);
    ASSERT_EQ(decoded[0].entries.size(), 2u);
    EXPECT_EQ(decoded[0].entries[0].task, 0u);
    EXPECT_EQ(decoded[0].entries[0].payload, payload);
    EXPECT_EQ(decoded[0].entries[0].digest, sweep::digestOf(payload));
    EXPECT_EQ(decoded[0].entries[1].task, 2u);
    EXPECT_EQ(decoded[0].entries[1].payload, "");

    std::vector<sweep::ManifestSweep> none;
    EXPECT_FALSE(sweep::decodeManifest("not json", none));
    EXPECT_FALSE(sweep::decodeManifest("{\"sweeps\": [", none));
}

TEST_F(SupervisorTest, DigestIsStable)
{
    EXPECT_EQ(sweep::digestOf("abc"), sweep::digestOf("abc"));
    EXPECT_NE(sweep::digestOf("abc"), sweep::digestOf("abd"));
    EXPECT_EQ(sweep::digestOf("").size(), 16u);
}

TEST_F(SupervisorTest, ResumeSalvagesCheckpointedTasks)
{
    std::atomic<uint32_t> executions{0};
    auto make_tasks = [&executions] {
        std::vector<sweep::Task> tasks;
        for (size_t i = 0; i < 5; ++i) {
            tasks.push_back([&executions, i]() -> std::string {
                ++executions;
                return strCat("result-", i);
            });
        }
        return tasks;
    };

    // First run: everything executes and is checkpointed.
    sweep::setOptions(checkpointed());
    std::vector<std::string> payloads;
    sweep::SweepReport first =
        sweep::supervise("resume-sweep", make_tasks(), payloads, 2);
    EXPECT_EQ(first.completed, 5u);
    EXPECT_EQ(executions.load(), 5u);

    // Second process: resume salvages every task without re-running.
    sweep::resetForTest();
    sweep::Options opt = checkpointed();
    opt.resume = true;
    sweep::setOptions(opt);
    ASSERT_TRUE(sweep::loadManifestFile(manifest_path_));
    std::vector<std::string> payloads2;
    sweep::SweepReport second =
        sweep::supervise("resume-sweep", make_tasks(), payloads2, 8);
    EXPECT_EQ(second.salvaged, 5u);
    EXPECT_EQ(second.completed, 0u);
    EXPECT_EQ(executions.load(), 5u) << "salvaged tasks must not re-run";
    EXPECT_EQ(payloads2, payloads);
}

TEST_F(SupervisorTest, ResumeRejectsDoctoredDigest)
{
    sweep::setOptions(checkpointed());
    std::vector<sweep::Task> tasks = {
        []() -> std::string { return "honest"; }};
    std::vector<std::string> payloads;
    sweep::supervise("digest-sweep", tasks, payloads, 1);

    // Corrupt the checkpointed payload on disk, keeping the old digest.
    std::FILE *f = std::fopen(manifest_path_.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    size_t pos = text.find("honest");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 6, "forged");
    f = std::fopen(manifest_path_.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text.c_str(), f);
    std::fclose(f);

    sweep::resetForTest();
    sweep::Options opt = checkpointed();
    opt.resume = true;
    sweep::setOptions(opt);
    ASSERT_TRUE(sweep::loadManifestFile(manifest_path_));
    std::vector<std::string> payloads2;
    sweep::SweepReport report =
        sweep::supervise("digest-sweep", tasks, payloads2, 1);
    // Digest mismatch: the stale payload must lose and the task re-run.
    EXPECT_EQ(report.salvaged, 0u);
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(payloads2[0], "honest");
}

TEST_F(SupervisorTest, OnlyRunsSingleTaskIndex)
{
    sweep::Options opt = checkpointed();
    opt.only = 1;
    sweep::setOptions(opt);

    std::atomic<uint32_t> executions{0};
    std::vector<sweep::Task> tasks;
    for (size_t i = 0; i < 3; ++i) {
        tasks.push_back([&executions, i]() -> std::string {
            ++executions;
            return strCat("only-", i);
        });
    }
    std::vector<std::string> payloads;
    sweep::SweepReport report =
        sweep::supervise("only-sweep", tasks, payloads, 4);
    EXPECT_EQ(executions.load(), 1u);
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.skipped, 2u);
    EXPECT_EQ(payloads[0], "");
    EXPECT_EQ(payloads[1], "only-1");
    EXPECT_EQ(payloads[2], "");
}

// --only selects a task of the checkpointed sweeps only: an in-memory
// fan-out nested inside the selected task must still compute every
// index, or skipped slots would fold in as default-constructed results.
TEST_F(SupervisorTest, OnlyDoesNotLeakIntoGuardedMap)
{
    sweep::Options opt = checkpointed();
    opt.only = 0;
    sweep::setOptions(opt);

    std::vector<int> values = sweep::guardedMap<int>(
        "only-map", 3, [](size_t i) { return static_cast<int>(i) + 10; },
        2);
    EXPECT_EQ(values, (std::vector<int>{10, 11, 12}));
    ASSERT_FALSE(sweep::reports().empty());
    EXPECT_EQ(sweep::reports().back().completed, 3u);
    EXPECT_EQ(sweep::reports().back().skipped, 0u);
}

TEST_F(SupervisorTest, GuardedMapReturnsTypedResultsAndThrows)
{
    sweep::setOptions(sweep::Options{});

    std::vector<int> squares = sweep::guardedMap<int>(
        "map-ok", 6, [](size_t i) { return static_cast<int>(i * i); },
        3);
    ASSERT_EQ(squares.size(), 6u);
    for (size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], static_cast<int>(i * i));

    EXPECT_THROW(sweep::guardedMap<int>(
                     "map-bad", 3,
                     [](size_t i) -> int {
                         if (i == 1)
                             fatal("permanently broken");
                         return 0;
                     },
                     3),
                 sweep::SweepError);
}

TEST_F(SupervisorTest, GuardBudgetsPropagateIntoNestedSweeps)
{
    sweep::Options opt;
    opt.max_task_events = 10000;
    opt.manifest_path.clear();
    sweep::setOptions(opt);

    // The outer guarded task spawns a nested worker pool; the nested
    // workers must inherit (and charge) the outer task's event budget.
    sweep::SweepReport report = sweep::runGuarded(
        "nested-budget",
        {[] {
            std::vector<uint64_t> charged = sweep::map<uint64_t>(
                4,
                [](size_t) -> uint64_t {
                    EXPECT_TRUE(sweep::guardActive());
                    sweep::chargeGuardEvents(4000);
                    return 1;
                },
                4);
            (void)charged;
        }},
        1);
    EXPECT_EQ(report.failed, 1u);
    ASSERT_FALSE(report.errors.empty());
    EXPECT_EQ(report.errors[0].kind,
              sweep::TaskErrorKind::kResourceExhausted);
}

} // namespace
} // namespace isol::isolbench
