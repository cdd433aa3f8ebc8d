/**
 * @file
 * Tests for the parallel sweep engine: slot-indexed result collection,
 * exception ordering, nested-sweep degradation, and — the core contract
 * — byte-identical reports for any worker count, with and without fault
 * injection.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/strings.hh"
#include "fault/fault.hh"
#include "isolbench/d2_fairness.hh"
#include "isolbench/scenario.hh"
#include "isolbench/sweep.hh"

namespace isol::isolbench
{
namespace
{

TEST(SweepEngine, ResultsLandInSlotOrder)
{
    auto out = sweep::map<int>(
        100, [](size_t i) { return static_cast<int>(i * i); }, 8);
    ASSERT_EQ(out.size(), 100u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(SweepEngine, EmptyAndSingleTask)
{
    sweep::run({}, 8);
    auto one = sweep::map<int>(1, [](size_t) { return 7; }, 8);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 7);
}

TEST(SweepEngine, AllTasksRunDespiteThrow)
{
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back([&ran, i] {
            ++ran;
            if (i == 3 || i == 5)
                fatal(strCat("task ", i, " failed"));
        });
    }
    try {
        sweep::run(std::move(tasks), 4);
        FAIL() << "expected SweepError";
    } catch (const sweep::SweepError &e) {
        // Every failure is reported, in task-index order, independent of
        // scheduling.
        ASSERT_EQ(e.failures().size(), 2u);
        EXPECT_EQ(e.failures()[0].task, 3u);
        EXPECT_EQ(e.failures()[0].message, "task 3 failed");
        EXPECT_EQ(e.failures()[1].task, 5u);
        EXPECT_EQ(e.failures()[1].message, "task 5 failed");
        EXPECT_NE(std::string(e.what()).find("2 tasks failed"),
                  std::string::npos);
    }
    EXPECT_EQ(ran.load(), 8);

    // The typed fan-out every bench uses fails the same way: two
    // throwing indices give one SweepError in index order, and every
    // other index still ran.
    std::vector<std::atomic<int>> ran_at(8);
    try {
        sweep::map<int>(
            8,
            [&ran_at](size_t i) {
                ++ran_at[i];
                if (i == 6 || i == 1)
                    fatal(strCat("index ", i, " failed"));
                return static_cast<int>(i);
            },
            4);
        FAIL() << "expected SweepError";
    } catch (const sweep::SweepError &e) {
        ASSERT_EQ(e.failures().size(), 2u);
        EXPECT_EQ(e.failures()[0].task, 1u);
        EXPECT_EQ(e.failures()[0].message, "index 1 failed");
        EXPECT_EQ(e.failures()[1].task, 6u);
        EXPECT_EQ(e.failures()[1].message, "index 6 failed");
    }
    for (size_t i = 0; i < ran_at.size(); ++i)
        EXPECT_EQ(ran_at[i].load(), 1) << "index " << i;
}

TEST(SweepEngine, SingleFailureRethrownVerbatim)
{
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 4; ++i) {
        tasks.push_back([i] {
            if (i == 2)
                fatal("task 2 failed");
        });
    }
    // One failure: the original exception type survives for callers that
    // match on FatalError.
    try {
        sweep::run(std::move(tasks), 4);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "task 2 failed");
    }

    // Same through sweep::map, and the other indices still ran.
    std::vector<std::atomic<int>> ran_at(4);
    try {
        sweep::map<int>(
            4,
            [&ran_at](size_t i) {
                ++ran_at[i];
                if (i == 2)
                    fatal("index 2 failed");
                return 0;
            },
            4);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "index 2 failed");
    }
    for (size_t i = 0; i < ran_at.size(); ++i)
        EXPECT_EQ(ran_at[i].load(), 1) << "index " << i;
}

TEST(SweepEngine, NestedSweepStillCorrect)
{
    auto outer = sweep::map<int>(
        4,
        [](size_t i) {
            auto inner = sweep::map<int>(
                8,
                [i](size_t j) { return static_cast<int>(i * 100 + j); },
                8);
            int sum = 0;
            for (int v : inner)
                sum += v;
            return sum;
        },
        4);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(outer[i], static_cast<int>(i * 800 + 28));
}

TEST(SweepEngine, DefaultJobsOverride)
{
    sweep::setDefaultJobs(3);
    EXPECT_EQ(sweep::defaultJobs(), 3u);
    sweep::setDefaultJobs(0);
    EXPECT_GE(sweep::defaultJobs(), 1u);
}

/** Fig. 5-style report over a (cgroups x knob) grid, as one string. */
std::string
fairnessGridReport(uint32_t jobs)
{
    const std::vector<uint32_t> group_counts = {2, 4};
    const Knob knobs[] = {Knob::kNone, Knob::kBfq, Knob::kIoCost};

    FairnessOptions opts;
    opts.apps_per_cgroup = 2;
    opts.num_cores = 8;
    opts.repeats = 2;
    opts.duration = msToNs(220);
    opts.warmup = msToNs(60);

    struct GridPoint
    {
        uint32_t cgroups;
        Knob knob;
    };
    std::vector<GridPoint> grid;
    for (uint32_t cgroups : group_counts) {
        for (Knob knob : knobs)
            grid.push_back({cgroups, knob});
    }

    std::vector<FairnessResult> results = sweep::map<FairnessResult>(
        grid.size(),
        [&](size_t i) {
            return runFairness(grid[i].knob, grid[i].cgroups, true,
                               FairnessMix::kUniform, opts);
        },
        jobs);

    std::string report;
    for (const FairnessResult &res : results) {
        report += strCat(res.cgroups, " ", knobName(res.knob), " jain=",
                         formatDouble(res.jain_mean, 6), " std=",
                         formatDouble(res.jain_std, 6), " agg=",
                         formatDouble(res.agg_gibs_mean, 6), "\n");
        for (double bw : res.per_group_gibs)
            report += strCat(" ", formatDouble(bw, 6));
        report += "\n";
    }
    return report;
}

TEST(SweepDeterminism, Fig5GridByteIdenticalAcrossJobs)
{
    std::string sequential = fairnessGridReport(1);
    std::string parallel = fairnessGridReport(8);
    EXPECT_EQ(sequential, parallel);
    EXPECT_FALSE(sequential.empty());
}

/** One fault-injected scenario; returns an exact-metrics fingerprint. */
std::string
faultedScenarioFingerprint(uint64_t seed)
{
    ScenarioConfig cfg;
    cfg.name = strCat("sweep-faults-", seed);
    cfg.knob = Knob::kIoCost;
    cfg.num_cores = 4;
    cfg.duration = msToNs(250);
    cfg.warmup = msToNs(50);
    cfg.seed = seed;
    cfg.faults = fault::profileConfig(fault::Profile::kAll);

    Scenario scenario(cfg);
    uint32_t lc = scenario.addApp(workload::lcApp("lc", cfg.duration),
                                  "lc");
    scenario.addApp(workload::beApp("be", cfg.duration), "be");
    scenario.tree().writeFile(scenario.appGroup(lc), "io.weight",
                              "10000");
    scenario.run();

    std::string print;
    for (uint32_t i = 0; i < scenario.numApps(); ++i) {
        print += strCat(scenario.app(i).windowBytes(), ":",
                        scenario.app(i).totalIos(), ":",
                        scenario.app(i).latency().percentile(99), ";");
    }
    print += strCat("events=", scenario.sim().eventsExecuted());
    return print;
}

TEST(SweepDeterminism, FaultedReplayByteIdenticalAcrossJobs)
{
    auto fingerprints = [](uint32_t jobs) {
        return sweep::map<std::string>(
            4,
            [](size_t i) {
                return faultedScenarioFingerprint(11 + i * 17);
            },
            jobs);
    };
    std::vector<std::string> sequential = fingerprints(1);
    std::vector<std::string> parallel = fingerprints(8);
    EXPECT_EQ(sequential, parallel);
    for (const std::string &fp : sequential)
        EXPECT_NE(fp.find("events="), std::string::npos);
}

TEST(SweepProfiler, RecordsScenarioRuns)
{
    sweep::clearProfiles();
    faultedScenarioFingerprint(3);
    auto once = sweep::profileSummary();
    EXPECT_EQ(once.scenarios, 1u);
    EXPECT_GT(once.events, 0u);
    EXPECT_GT(once.peak_queue_depth, 0u);
    EXPECT_NE(sweep::profileSummaryLine().find("1 scenarios"),
              std::string::npos);

    // A second, identical run folds into the same summary: counts add,
    // the peak depth is a max.
    faultedScenarioFingerprint(3);
    auto twice = sweep::profileSummary();
    EXPECT_EQ(twice.scenarios, 2u);
    EXPECT_EQ(twice.events, 2 * once.events);
    EXPECT_EQ(twice.peak_queue_depth, once.peak_queue_depth);
    sweep::clearProfiles();
    EXPECT_EQ(sweep::profileSummary().scenarios, 0u);
}

} // namespace
} // namespace isol::isolbench
