/**
 * @file
 * Host-side fault-plane tests: NVMe command timeouts (abort + requeue +
 * capped backoff) through the block layer with per-cgroup accounting,
 * deterministic replay of whole faulty scenarios, and the d5_degradation
 * harness.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "blk/block_device.hh"
#include "cgroup/cgroup.hh"
#include "common/logging.hh"
#include "isolbench/d5_degradation.hh"
#include "isolbench/scenario.hh"
#include "sim/simulator.hh"
#include "ssd/config.hh"
#include "ssd/device.hh"

namespace isol::blk
{
namespace
{

/** One-die flash config: deep read queues build multi-ms backlogs. */
ssd::SsdConfig
oneDieFlash()
{
    ssd::SsdConfig cfg = ssd::samsung980ProLike();
    cfg.user_capacity = 64 * MiB;
    cfg.channels = 1;
    cfg.dies_per_channel = 1;
    cfg.pages_per_block = 32;
    cfg.overprovision = 0.25;
    return cfg;
}

TEST(NvmeTimeout, AbortRequeueRetrySequence)
{
    sim::Simulator sim;
    cgroup::CgroupTree tree;
    ssd::SsdDevice ssd(sim, oneDieFlash(), 3);

    BlockDeviceConfig bcfg;
    bcfg.nvme_timeout.enabled = true;
    bcfg.nvme_timeout.command_timeout = msToNs(1);
    // Aborted attempts still occupy the die, so retries add device work;
    // the exponential backoff must decay the retry rate below the die's
    // service rate (~78 us/read) or the backlog never drains.
    bcfg.nvme_timeout.max_retries = 50;
    bcfg.nvme_timeout.backoff_base = usToNs(200);
    bcfg.nvme_timeout.backoff_cap = msToNs(10);
    BlockDevice bdev(sim, tree, ssd, bcfg);

    // 40 reads into a one-die device: ~78 us tR each, so the tail of the
    // queue waits >3 ms — far beyond the 1 ms command timeout.
    cgroup::Cgroup &cg = tree.createChild(tree.root(), "app");
    constexpr int kIos = 40;
    std::vector<Request> reqs(kIos);
    int completed = 0;
    int failed = 0;
    uint32_t max_retries_seen = 0;
    for (int i = 0; i < kIos; ++i) {
        reqs[i].op = OpType::kRead;
        reqs[i].offset = static_cast<uint64_t>(i) * 4096;
        reqs[i].size = 4096;
        reqs[i].cg = &cg;
        reqs[i].on_complete = [&](Request *r) {
            ++completed;
            if (r->failed)
                ++failed;
            max_retries_seen = std::max(max_retries_seen, r->retries);
        };
        bdev.submit(&reqs[i]);
    }
    sim.runAll();

    // Every request eventually completed, none permanently failed.
    EXPECT_EQ(completed, kIos);
    EXPECT_EQ(failed, 0);

    // The full timeout -> abort -> requeue -> successful-retry sequence
    // happened at least once.
    const fault::HostFaultStats &host = bdev.faultStats();
    EXPECT_GT(host.timeouts, 0u);
    EXPECT_EQ(host.aborts, host.timeouts);
    EXPECT_GT(host.requeues, 0u);
    EXPECT_GT(host.retry_successes, 0u);
    EXPECT_GT(max_retries_seen, 0u);
    // Aborted attempts still finish on the device and are dropped.
    EXPECT_GT(host.late_completions, 0u);
    EXPECT_EQ(host.failed_ios, 0u);

    // Per-cgroup accounting matches the device totals (single group).
    const cgroup::Cgroup::IoFaultStat &cgs = cg.ioFaultStat();
    EXPECT_EQ(cgs.timeouts, host.timeouts);
    EXPECT_EQ(cgs.requeues, host.requeues);
    EXPECT_EQ(cgs.retry_successes, host.retry_successes);
    EXPECT_EQ(cgs.failed_ios, 0u);
}

TEST(NvmeTimeout, FailsAfterMaxRetries)
{
    sim::Simulator sim;
    cgroup::CgroupTree tree;
    ssd::SsdDevice ssd(sim, oneDieFlash(), 3);

    BlockDeviceConfig bcfg;
    bcfg.nvme_timeout.enabled = true;
    // Shorter than a single tR: every attempt times out.
    bcfg.nvme_timeout.command_timeout = usToNs(20);
    bcfg.nvme_timeout.max_retries = 2;
    bcfg.nvme_timeout.backoff_base = usToNs(50);
    bcfg.nvme_timeout.backoff_cap = usToNs(200);
    BlockDevice bdev(sim, tree, ssd, bcfg);

    cgroup::Cgroup &cg = tree.createChild(tree.root(), "doomed");
    Request req;
    req.op = OpType::kRead;
    req.offset = 0;
    req.size = 4096;
    req.cg = &cg;
    bool done = false;
    bool failed = false;
    req.on_complete = [&](Request *r) {
        done = true;
        failed = r->failed;
    };
    bdev.submit(&req);
    sim.runAll();

    EXPECT_TRUE(done);
    EXPECT_TRUE(failed);
    EXPECT_EQ(bdev.faultStats().failed_ios, 1u);
    EXPECT_EQ(bdev.faultStats().retry_successes, 0u);
    EXPECT_EQ(bdev.faultStats().timeouts, 3u); // initial + 2 retries
    EXPECT_EQ(cg.ioFaultStat().failed_ios, 1u);
    EXPECT_EQ(cg.ioFaultStat().timeouts, 3u);
}

TEST(NvmeTimeout, IoCostChargesEveryRequeue)
{
    sim::Simulator sim;
    cgroup::CgroupTree tree;
    ssd::SsdDevice ssd(sim, oneDieFlash(), 3);

    BlockDeviceConfig bcfg;
    bcfg.qos = QosType::kIoCost;
    bcfg.nvme_timeout.enabled = true;
    // Shorter than a single tR: every attempt times out.
    bcfg.nvme_timeout.command_timeout = usToNs(20);
    bcfg.nvme_timeout.max_retries = 2;
    bcfg.nvme_timeout.backoff_base = usToNs(50);
    bcfg.nvme_timeout.backoff_cap = usToNs(200);
    BlockDevice bdev(sim, tree, ssd, bcfg);

    cgroup::Cgroup &cg = tree.createChild(tree.root(), "doomed");
    Request req;
    req.op = OpType::kRead;
    req.offset = 0;
    req.size = 4096;
    req.cg = &cg;
    bool failed = false;
    req.on_complete = [&](Request *r) { failed = r->failed; };
    bdev.submit(&req);
    sim.runAll();

    ASSERT_TRUE(failed);
    ASSERT_EQ(bdev.faultStats().requeues, 2u);
    // One admission charge plus one charge per requeue.
    IoCostGate *gate = bdev.ioCostGate();
    EXPECT_DOUBLE_EQ(gate->subtreeAbsOf(&cg),
                     3.0 * static_cast<double>(gate->absCost(req)));
}

TEST(NvmeTimeout, DisabledAddsNoCounters)
{
    sim::Simulator sim;
    cgroup::CgroupTree tree;
    ssd::SsdDevice ssd(sim, oneDieFlash(), 3);
    BlockDevice bdev(sim, tree, ssd, BlockDeviceConfig{});

    cgroup::Cgroup &cg = tree.createChild(tree.root(), "app");
    std::vector<Request> reqs(32);
    int completed = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].op = OpType::kRead;
        reqs[i].offset = i * 4096;
        reqs[i].size = 4096;
        reqs[i].cg = &cg;
        reqs[i].on_complete = [&](Request *) { ++completed; };
        bdev.submit(&reqs[i]);
    }
    sim.runAll();
    EXPECT_EQ(completed, 32);
    EXPECT_EQ(bdev.faultStats().timeouts, 0u);
    EXPECT_EQ(bdev.faultStats().requeues, 0u);
    EXPECT_EQ(bdev.faultStats().late_completions, 0u);
    EXPECT_EQ(cg.ioFaultStat().timeouts, 0u);
}

} // namespace
} // namespace isol::blk

namespace isol::isolbench
{
namespace
{

ssd::SsdConfig
smallFlash()
{
    ssd::SsdConfig cfg = ssd::samsung980ProLike();
    cfg.user_capacity = 256 * MiB;
    cfg.channels = 2;
    cfg.dies_per_channel = 2;
    cfg.pages_per_block = 64;
    return cfg;
}

/** Run one faulty scenario and fold every stat into a summary string. */
std::string
faultySummary(uint64_t seed)
{
    ScenarioConfig cfg;
    cfg.name = "replay";
    cfg.knob = Knob::kNone;
    cfg.duration = msToNs(200);
    cfg.warmup = msToNs(50);
    cfg.seed = seed;
    cfg.device = smallFlash();
    cfg.faults = fault::profileConfig(fault::Profile::kAll);
    cfg.faults.device.media.read_error_prob = 0.01;
    cfg.faults.timeout.command_timeout = msToNs(2);

    Scenario scenario(cfg);
    uint32_t lc =
        scenario.addApp(workload::lcApp("lc", cfg.duration), "lc");
    workload::JobSpec be = workload::beApp("be", cfg.duration);
    be.iodepth = 64;
    uint32_t bi = scenario.addApp(std::move(be), "be");
    scenario.run();

    const fault::DeviceFaultStats &dev = scenario.ssd(0).faultStats();
    const fault::HostFaultStats &host = scenario.device(0).faultStats();
    return strCat(
        scenario.app(lc).totalIos(), ",", scenario.app(bi).totalIos(),
        ",", scenario.app(lc).latency().percentile(99), ",",
        scenario.app(bi).windowBytes(), ",", dev.read_retries, ",",
        dev.uncorrectable, ",", dev.remapped_blocks, ",",
        dev.spike_events, ",", dev.throttle_ns, ",", host.timeouts, ",",
        host.requeues, ",", host.retry_successes, ",",
        host.late_completions);
}

TEST(FaultReplay, SameSeedIsByteIdentical)
{
    std::string a = faultySummary(17);
    std::string b = faultySummary(17);
    EXPECT_EQ(a, b);

    std::string c = faultySummary(18);
    EXPECT_NE(a, c);
}

TEST(Degradation, SmokeRun)
{
    DegradationOptions opts;
    opts.duration = msToNs(400);
    opts.warmup = msToNs(100);
    opts.num_be_apps = 2;
    opts.device = smallFlash();

    DegradationResult r = runDegradation(Knob::kNone, opts);
    EXPECT_GT(r.healthy_agg_gibs, 0.0);
    EXPECT_GT(r.degraded_agg_gibs, 0.0);
    EXPECT_GT(r.healthy_lc_p99_us, 0.0);
    EXPECT_GT(r.degraded_lc_p99_us, 0.0);
    // The degraded run actually saw faults.
    EXPECT_GT(r.read_retries + r.timeouts + r.requeues, 0u);

    std::vector<DegradationResult> results{r};
    stats::Table table = degradationTable(results);
    EXPECT_EQ(table.numRows(), 1u);
    EXPECT_NE(table.toAligned().find("none"), std::string::npos);
}

} // namespace
} // namespace isol::isolbench
