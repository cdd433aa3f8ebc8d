/**
 * @file
 * Integration tests for the isol-bench core library: scenario wiring and
 * the paper's headline observations (O1-O10) as executable properties,
 * with deliberately loose bounds so they test shape, not calibration.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "isolbench/d1_overhead.hh"
#include "isolbench/d2_fairness.hh"
#include "isolbench/d3_tradeoffs.hh"
#include "isolbench/d4_bursts.hh"
#include "isolbench/scenario.hh"
#include "isolbench/validate.hh"
#include "stats/fairness.hh"
#include "stats/histogram.hh"

namespace isol::isolbench
{
namespace
{

D1Options
fastD1()
{
    D1Options opts;
    opts.duration = msToNs(700);
    opts.warmup = msToNs(200);
    return opts;
}

TEST(Scenario, BuildsAndRuns)
{
    ScenarioConfig cfg;
    cfg.duration = msToNs(300);
    cfg.warmup = msToNs(100);
    Scenario scenario(cfg);
    uint32_t a =
        scenario.addApp(workload::lcApp("lc", msToNs(300)), "lc");
    scenario.run();
    EXPECT_GT(scenario.app(a).totalIos(), 0u);
    EXPECT_GT(scenario.aggregateGiBs(), 0.0);
    EXPECT_GT(scenario.cpuUtilization(), 0.0);
}

TEST(Scenario, ReadOnlyRunLeavesTheFtlMapsUnallocated)
{
    // Random reads of a fresh drive resolve from the FTL's written-chunk
    // summary; a read that loaded the forward map would need it
    // allocated. A writer is the control: its first write allocates.
    auto run = [](OpType op) {
        ScenarioConfig cfg;
        cfg.knob = Knob::kIoCost;
        cfg.duration = msToNs(200);
        cfg.warmup = msToNs(50);
        Scenario scenario(cfg);
        scenario.addApp(workload::batchApp("a", msToNs(200)), "a");
        workload::JobSpec spec = workload::lcApp("b", msToNs(200));
        spec.op = op;
        scenario.addApp(std::move(spec), "b");
        scenario.run();
        EXPECT_GT(scenario.app(0).totalIos(), 0u);
        return scenario.ssd(0).ftl().tableBytes();
    };
    EXPECT_EQ(run(OpType::kRead), 0u);
    EXPECT_GT(run(OpType::kWrite), 0u);
}

TEST(Scenario, AppsShareNamedCgroups)
{
    ScenarioConfig cfg;
    cfg.duration = msToNs(200);
    cfg.warmup = msToNs(50);
    Scenario scenario(cfg);
    uint32_t a =
        scenario.addApp(workload::lcApp("a", msToNs(200)), "shared");
    uint32_t b =
        scenario.addApp(workload::lcApp("b", msToNs(200)), "shared");
    EXPECT_EQ(&scenario.appGroup(a), &scenario.appGroup(b));
    EXPECT_EQ(&scenario.group("shared"), &scenario.appGroup(a));
}

TEST(Scenario, ValidationErrors)
{
    ScenarioConfig bad;
    bad.num_devices = 0;
    EXPECT_THROW(Scenario{bad}, FatalError);

    ScenarioConfig warm;
    warm.warmup = warm.duration;
    EXPECT_THROW(Scenario{warm}, FatalError);

    ScenarioConfig ok;
    ok.duration = msToNs(100);
    ok.warmup = msToNs(10);
    Scenario scenario(ok);
    EXPECT_THROW(
        scenario.addApp(workload::lcApp("x", msToNs(100)), "x", 5),
        FatalError);
    EXPECT_THROW(scenario.group("missing"), FatalError);
}

TEST(Scenario, KnobNames)
{
    EXPECT_STREQ(knobName(Knob::kNone), "none");
    EXPECT_STREQ(knobName(Knob::kIoCost), "io.cost");
    EXPECT_STREQ(knobName(Knob::kMqDeadline), "mq-deadline");
}

TEST(Scenario, CostModelPresets)
{
    cgroup::IoCostModel gen = generatedCostModel();
    cgroup::IoCostModel beyond = beyondSaturationCostModel();
    EXPECT_LT(gen.rbps, beyond.rbps);
    EXPECT_LT(gen.wbps, gen.rbps); // write asymmetry
    cgroup::IoCostQos qos = paperCostQos();
    EXPECT_DOUBLE_EQ(qos.rpct, 95.0);
    EXPECT_EQ(qos.rlat, usToNs(100));
    EXPECT_DOUBLE_EQ(disabledCostQos().rpct, 0.0);
}

// --- O1/O2 shapes (D1) ---

TEST(Validate, DoctoredResultsFailValidation)
{
    std::vector<validate::Issue> issues;
    // completed > submitted.
    validate::checkConservation(issues, "nvme0", 100, 150, 64);
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
    } catch (const sim::InvariantViolation &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("doctored"), std::string::npos);
        EXPECT_NE(what.find("io-conservation"), std::string::npos);
        EXPECT_NE(what.find("latency-percentiles"), std::string::npos);
    }

    std::vector<validate::Issue> clean;
    validate::checkConservation(clean, "nvme0", 100, 90, 64);
    validate::checkPercentiles(clean, "app", 100, 200, 300);
    validate::checkThroughput(clean, "agg", 2.5);
    validate::checkRatio(clean, "cpu", 0.8);
    EXPECT_TRUE(clean.empty());
    validate::enforce(clean, "clean"); // must not throw
}

TEST(D1, SchedulersRaiseSingleAppTailLatency)
{
    auto none = runLcScaling(Knob::kNone, 1, fastD1());
    auto mq = runLcScaling(Knob::kMqDeadline, 1, fastD1());
    auto bfq = runLcScaling(Knob::kBfq, 1, fastD1());
    EXPECT_GT(mq.p99_us, none.p99_us * 1.02);
    EXPECT_GT(bfq.p99_us, mq.p99_us);
    // io.max and io.latency add no meaningful latency (O1).
    auto iomax = runLcScaling(Knob::kIoMax, 1, fastD1());
    EXPECT_LT(iomax.p99_us, none.p99_us * 1.05);
}

TEST(D1, IoCostLatencyOverheadPastCpuSaturation)
{
    auto none = runLcScaling(Knob::kNone, 16, fastD1());
    auto cost = runLcScaling(Knob::kIoCost, 16, fastD1());
    EXPECT_GT(cost.p99_us, none.p99_us * 1.15);
    // Before saturation the overhead is minor.
    auto none1 = runLcScaling(Knob::kNone, 1, fastD1());
    auto cost1 = runLcScaling(Knob::kIoCost, 1, fastD1());
    EXPECT_LT(cost1.p99_us, none1.p99_us * 1.10);
}

// O1's mechanism: the io.cost overhead past CPU saturation is the period
// timer's work on the saturated core. The 16-app io.cost run of
// runLcScaling with that CPU charge detached stays within 10% of none.
TEST(D1, IoCostOverheadIsThePeriodTimersCpu)
{
    const D1Options opts = fastD1();
    auto none = runLcScaling(Knob::kNone, 16, opts);

    ScenarioConfig cfg;
    cfg.name = "d1-lc-io.cost-16-timer-off-cpu";
    cfg.knob = Knob::kIoCost;
    cfg.num_cores = 1;
    cfg.duration = opts.duration;
    cfg.warmup = opts.warmup;
    cfg.seed = opts.seed;
    applyOverheadKnobDefaults(cfg);
    Scenario scenario(cfg);
    for (uint32_t i = 0; i < 16; ++i) {
        std::string name = "lc" + std::to_string(i);
        scenario.addApp(workload::lcApp(name, cfg.duration), name);
    }
    applyNoopGroupLimits(scenario);
    scenario.device(0).ioCostGate()->setCpuCharge(nullptr);
    scenario.run();

    stats::Histogram merged;
    for (uint32_t i = 0; i < 16; ++i)
        merged.merge(scenario.app(i).latency());
    EXPECT_LT(nsToUs(merged.percentile(99)), none.p99_us * 1.10);
}

TEST(D1, CpuUtilizationScalesWithApps)
{
    auto few = runLcScaling(Knob::kNone, 2, fastD1());
    auto many = runLcScaling(Knob::kNone, 16, fastD1());
    EXPECT_GT(many.cpu_util, few.cpu_util * 2);
    EXPECT_GT(many.cpu_util, 0.9); // 16 LC-apps saturate one core
}

TEST(D1, CdfIsWellFormed)
{
    auto res = runLcScaling(Knob::kNone, 4, fastD1());
    ASSERT_FALSE(res.cdf.empty());
    EXPECT_NEAR(res.cdf.back().second, 1.0, 1e-9);
    double prev = 0.0;
    for (auto [us, p] : res.cdf) {
        EXPECT_GE(p, prev);
        prev = p;
        EXPECT_GE(us, 0.0);
    }
}

TEST(D1, SchedulersCapSingleSsdBandwidth)
{
    auto none = runBatchScaling(Knob::kNone, 8, 1, fastD1());
    auto mq = runBatchScaling(Knob::kMqDeadline, 8, 1, fastD1());
    auto bfq = runBatchScaling(Knob::kBfq, 8, 1, fastD1());
    EXPECT_GT(none.agg_gibs, 2.5);
    EXPECT_LT(mq.agg_gibs, none.agg_gibs * 0.75);
    EXPECT_LT(bfq.agg_gibs, mq.agg_gibs * 0.6);
}

TEST(D1, QosKnobsScaleAcrossSsds)
{
    auto none = runBatchScaling(Knob::kNone, 8, 4, fastD1());
    auto iomax = runBatchScaling(Knob::kIoMax, 8, 4, fastD1());
    auto cost = runBatchScaling(Knob::kIoCost, 8, 4, fastD1());
    // Small (<15%) overhead vs none; far above the schedulers.
    EXPECT_GT(iomax.agg_gibs, none.agg_gibs * 0.85);
    EXPECT_GT(cost.agg_gibs, none.agg_gibs * 0.85);
}

// --- O3/O4/O5 shapes (D2) ---

FairnessOptions
fastFairness()
{
    FairnessOptions opts;
    opts.duration = msToNs(900);
    opts.warmup = msToNs(300);
    opts.repeats = 1;
    return opts;
}

TEST(D2, UniformWorkloadsAreFairPreSaturation)
{
    for (Knob knob : {Knob::kNone, Knob::kIoMax, Knob::kIoCost}) {
        auto res = runFairness(knob, 4, false, FairnessMix::kUniform,
                               fastFairness());
        EXPECT_GT(res.jain_mean, 0.85) << knobName(knob);
    }
}

TEST(D2, IoCostModelLimitsAggregateBandwidth)
{
    auto none = runFairness(Knob::kNone, 4, false, FairnessMix::kUniform,
                            fastFairness());
    auto cost = runFairness(Knob::kIoCost, 4, false,
                            FairnessMix::kUniform, fastFairness());
    // O3: the achievable model + min=50% costs aggregate bandwidth.
    EXPECT_LT(cost.agg_gibs_mean, none.agg_gibs_mean * 0.75);
}

TEST(D2, WeightedFairnessForCapableKnobs)
{
    auto cost = runFairness(Knob::kIoCost, 4, true, FairnessMix::kUniform,
                            fastFairness());
    auto iomax = runFairness(Knob::kIoMax, 4, true, FairnessMix::kUniform,
                             fastFairness());
    EXPECT_GT(cost.jain_mean, 0.8);
    EXPECT_GT(iomax.jain_mean, 0.8);
}

TEST(D2, WeightedFairnessPoorForLatencyAndMqdl)
{
    auto cost = runFairness(Knob::kIoCost, 4, true, FairnessMix::kUniform,
                            fastFairness());
    auto mq = runFairness(Knob::kMqDeadline, 4, true,
                          FairnessMix::kUniform, fastFairness());
    // O4: io.prio.class "weights" are much less fair than real weights.
    EXPECT_LT(mq.jain_mean, cost.jain_mean - 0.1);
}

TEST(D2, RequestSizeMixBreaksFairnessExceptMaxAndCost)
{
    auto none = runFairness(Knob::kNone, 2, false, FairnessMix::kReqSize,
                            fastFairness());
    auto iomax = runFairness(Knob::kIoMax, 2, false,
                             FairnessMix::kReqSize, fastFairness());
    // O5: without control, large-request groups capture the bandwidth.
    EXPECT_LT(none.jain_mean, 0.75);
    EXPECT_GT(iomax.jain_mean, none.jain_mean + 0.1);
}

TEST(D2, PerGroupBandwidthsReported)
{
    auto res = runFairness(Knob::kNone, 3, false, FairnessMix::kUniform,
                           fastFairness());
    ASSERT_EQ(res.per_group_gibs.size(), 3u);
    double sum = 0.0;
    for (double bw : res.per_group_gibs)
        sum += bw;
    EXPECT_NEAR(sum, res.agg_gibs_mean, res.agg_gibs_mean * 0.05);
}

// --- O6-O9 shapes (D3) ---

TradeoffOptions
fastTradeoff()
{
    TradeoffOptions opts;
    opts.duration = msToNs(800);
    opts.warmup = msToNs(250);
    opts.coarsen = 5;
    return opts;
}

TEST(D3, MqdlPrioritizationIsCoarse)
{
    auto points = runTradeoffSweep(Knob::kMqDeadline,
                                   PriorityAppKind::kBatch,
                                   BeWorkload::kRand4k, fastTradeoff());
    ASSERT_EQ(points.size(), 9u); // 3x3 class permutations
    double min_prio = 1e9;
    double max_prio = 0.0;
    for (const auto &p : points) {
        min_prio = std::min(min_prio, p.priority_gibs);
        max_prio = std::max(max_prio, p.priority_gibs);
    }
    // Strict prioritization: from starved to the app's full (single
    // thread, CPU-bound) performance — no fine-grained middle ground.
    EXPECT_LT(min_prio, 0.1);
    EXPECT_GT(max_prio, 0.3);
    EXPECT_GT(max_prio, min_prio * 4);
}

TEST(D3, IoMaxTradesOffButThrottlesStatically)
{
    TradeoffOptions opts = fastTradeoff();
    opts.coarsen = 3; // reach the near-saturation end of the cap sweep
    auto points = runTradeoffSweep(Knob::kIoMax, PriorityAppKind::kBatch,
                                   BeWorkload::kRand4k, opts);
    ASSERT_GE(points.size(), 4u);
    double min_prio = 1e18;
    double max_prio = 0.0;
    for (const auto &p : points) {
        min_prio = std::min(min_prio, p.priority_gibs);
        max_prio = std::max(max_prio, p.priority_gibs);
    }
    // Tight BE caps protect the priority app; loose caps let the BE
    // apps contend it down.
    EXPECT_GT(max_prio, min_prio * 1.15);
    // ...but aggregate utilisation suffers at strict caps.
    EXPECT_LT(points.front().agg_gibs, points.back().agg_gibs);
}

TEST(D3, IoCostTradesOffLatency)
{
    auto points = runTradeoffSweep(Knob::kIoCost, PriorityAppKind::kLc,
                                   BeWorkload::kRand4k, fastTradeoff());
    ASSERT_GE(points.size(), 2u);
    double best_lat = 1e18;
    double worst_lat = 0.0;
    for (const auto &p : points) {
        best_lat = std::min(best_lat, p.priority_p99_us);
        worst_lat = std::max(worst_lat, p.priority_p99_us);
    }
    EXPECT_LT(best_lat, worst_lat * 0.8); // configs span a real range
}

TEST(D3, NamesAreStable)
{
    EXPECT_STREQ(priorityAppKindName(PriorityAppKind::kBatch), "batch");
    EXPECT_STREQ(priorityAppKindName(PriorityAppKind::kLc), "lc");
    EXPECT_STREQ(beWorkloadName(BeWorkload::kRand256k), "rand-256k");
    EXPECT_STREQ(fairnessMixName(FairnessMix::kReadWrite), "read-write");
}

// --- O10 shape (D4) ---

TEST(D4, IoLatencyRespondsInSecondsOthersInMillis)
{
    BurstOptions opts;
    opts.duration = secToNs(int64_t{7});
    opts.burst_start = msToNs(1000);
    opts.threshold = 0.9;

    // io.latency is evaluated with the LC-app: reaching its latency
    // target requires throttling the BE group's QD far down, one
    // halving per 500 ms window.
    auto iolat =
        runBurstResponse(Knob::kIoLatency, PriorityAppKind::kLc, opts);
    auto iomax =
        runBurstResponse(Knob::kIoMax, PriorityAppKind::kBatch, opts);
    ASSERT_GT(iomax.response_ms, -1.0);
    // io.max responds quickly...
    EXPECT_LT(iomax.response_ms, 500.0);
    // ...io.latency needs multiple 500 ms windows to throttle the BE
    // apps down (or never stabilises within the run).
    if (iolat.response_ms >= 0.0) {
        EXPECT_GT(iolat.response_ms, 800.0);
        EXPECT_GT(iolat.response_ms, iomax.response_ms * 3);
    }
}

// The burst runner is a path no isol_fuzz rerun or --jobs diff runs, so
// it reruns itself. The second run starts on the heap the first one
// left behind, so output that depends on pointer order, or on state
// kept between runs, can differ between the two.
TEST(D4, BurstRunnerRerunsIdentically)
{
    BurstOptions opts;
    opts.duration = msToNs(600);
    opts.burst_start = msToNs(200);
    const std::pair<Knob, PriorityAppKind> cases[] = {
        {Knob::kIoCost, PriorityAppKind::kLc},
        {Knob::kIoMax, PriorityAppKind::kBatch}};
    for (const auto &[knob, kind] : cases) {
        BurstResult first = runBurstResponse(knob, kind, opts);
        BurstResult second = runBurstResponse(knob, kind, opts);
        EXPECT_EQ(std::bit_cast<uint64_t>(first.response_ms),
                  std::bit_cast<uint64_t>(second.response_ms))
            << knobName(knob);
        EXPECT_EQ(std::bit_cast<uint64_t>(first.steady_value),
                  std::bit_cast<uint64_t>(second.steady_value))
            << knobName(knob);
    }
}

} // namespace
} // namespace isol::isolbench
