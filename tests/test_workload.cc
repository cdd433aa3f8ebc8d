/**
 * @file
 * Tests for the fio-like workload generator: queue-depth maintenance,
 * rate limiting, sequential/random offsets, read/write mixes, bursts,
 * cgroup attach/detach and measure-window statistics.
 */

#include <gtest/gtest.h>

#include <memory>

#include "blk/block_device.hh"
#include "common/logging.hh"
#include "host/cpu.hh"
#include "host/engine.hh"
#include "sim/simulator.hh"
#include "ssd/config.hh"
#include "ssd/device.hh"
#include "workload/app_profiles.hh"
#include "workload/job.hh"

namespace isol::workload
{
namespace
{

struct JobFixture : public ::testing::Test
{
    JobFixture()
        : ssd(sim, ssd::samsung980ProLike(), 11),
          bdev(sim, tree, ssd, blk::BlockDeviceConfig{}), cpus(sim, 4)
    {
        tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
        cg = &tree.createChild(tree.root(), "app");
        bdev.start();
    }

    std::unique_ptr<FioJob>
    makeJob(JobSpec spec, uint32_t core = 0, uint32_t task = 1)
    {
        return std::make_unique<FioJob>(sim, std::move(spec), bdev,
                                        cpus.core(core),
                                        host::ioUringEngine(), tree, cg,
                                        task);
    }

    sim::Simulator sim;
    cgroup::CgroupTree tree;
    ssd::SsdDevice ssd;
    blk::BlockDevice bdev;
    host::CpuSet cpus;
    cgroup::Cgroup *cg = nullptr;
};

TEST_F(JobFixture, CompletesIos)
{
    JobSpec spec = lcApp("lc", msToNs(100));
    auto job = makeJob(spec);
    job->schedule();
    sim.runUntil(msToNs(150));
    EXPECT_GT(job->totalIos(), 100u);
    EXPECT_FALSE(job->running());
}

TEST_F(JobFixture, Qd1LatencyIncludesCpu)
{
    JobSpec spec = lcApp("lc", msToNs(200));
    auto job = makeJob(spec);
    job->setMeasureWindow(msToNs(20), msToNs(200));
    job->schedule();
    sim.runUntil(msToNs(220));
    // Device ~85 us + ~9 us submission/completion CPU.
    int64_t p50 = job->latency().percentile(50);
    EXPECT_GT(p50, usToNs(70));
    EXPECT_LT(p50, usToNs(130));
}

TEST_F(JobFixture, DeepQueueDrivesHigherThroughput)
{
    JobSpec qd1 = lcApp("lc", msToNs(100));
    JobSpec qd64 = batchApp("batch", msToNs(100));
    qd64.iodepth = 64;
    auto a = makeJob(qd1, 0, 1);
    auto b = makeJob(qd64, 1, 2);
    a->schedule();
    b->schedule();
    sim.runUntil(msToNs(120));
    EXPECT_GT(b->totalIos(), a->totalIos() * 10);
}

TEST_F(JobFixture, RateLimitHonoured)
{
    JobSpec spec = batchApp("batch", msToNs(500));
    spec.rate_bps = 64 * MiB;
    auto job = makeJob(spec);
    job->setMeasureWindow(0, msToNs(500));
    job->schedule();
    sim.runUntil(msToNs(500));
    double mibs = job->windowBandwidth() / static_cast<double>(MiB);
    EXPECT_GT(mibs, 50.0);
    EXPECT_LT(mibs, 72.0);
}

TEST_F(JobFixture, SequentialOffsetsAdvance)
{
    JobSpec spec = lcApp("seq", msToNs(50));
    spec.pattern = AccessPattern::kSequential;
    auto job = makeJob(spec);
    job->schedule();
    sim.runUntil(msToNs(60));
    EXPECT_GT(job->totalIos(), 16u);
}

TEST_F(JobFixture, MixedReadWrite)
{
    JobSpec spec = batchApp("mix", msToNs(100));
    spec.read_fraction = 0.5;
    auto job = makeJob(spec);
    job->schedule();
    sim.runUntil(msToNs(150));
    EXPECT_GT(ssd.bytesRead(), 0u);
    EXPECT_GT(ssd.bytesWritten(), 0u);
}

TEST_F(JobFixture, WriteOpImpliesWriteMix)
{
    JobSpec spec = batchApp("writer", msToNs(50));
    spec.op = OpType::kWrite;
    auto job = makeJob(spec);
    job->schedule();
    sim.runUntil(msToNs(100));
    EXPECT_EQ(ssd.bytesRead(), 0u);
    EXPECT_GT(ssd.bytesWritten(), 0u);
}

TEST_F(JobFixture, StartDelayRespected)
{
    JobSpec spec = lcApp("late", msToNs(50));
    spec.start_time = msToNs(100);
    auto job = makeJob(spec);
    job->schedule();
    sim.runUntil(msToNs(50));
    EXPECT_EQ(job->totalIos(), 0u);
    EXPECT_FALSE(job->running());
    sim.runUntil(msToNs(120));
    EXPECT_TRUE(job->running());
    sim.runUntil(msToNs(200));
    EXPECT_GT(job->totalIos(), 0u);
    EXPECT_FALSE(job->running());
}

TEST_F(JobFixture, CgroupAttachDetachLifecycle)
{
    JobSpec spec = lcApp("lc", msToNs(50));
    spec.start_time = msToNs(10);
    auto job = makeJob(spec);
    job->schedule();
    EXPECT_EQ(cg->processCount(), 0u);
    sim.runUntil(msToNs(20));
    EXPECT_EQ(cg->processCount(), 1u);
    sim.runUntil(msToNs(100)); // stopped and drained
    EXPECT_EQ(cg->processCount(), 0u);
}

TEST_F(JobFixture, BurstDutyCycle)
{
    JobSpec spec = batchApp("bursty", msToNs(400));
    spec.iodepth = 16;
    spec.burst_on = msToNs(50);
    spec.burst_off = msToNs(50);
    spec.stats_bin = msToNs(10);
    auto job = makeJob(spec);
    job->schedule();
    sim.runUntil(msToNs(400));
    const auto &series = job->bandwidthSeries();
    // On-phase bins carry far more traffic than off-phase bins.
    uint64_t on_phase = series.totalBetween(msToNs(10), msToNs(40));
    uint64_t off_phase = series.totalBetween(msToNs(70), msToNs(90));
    EXPECT_GT(on_phase, off_phase * 3 + 1);
}

TEST_F(JobFixture, MeasureWindowExcludesWarmup)
{
    JobSpec spec = lcApp("lc", msToNs(200));
    auto job = makeJob(spec);
    job->setMeasureWindow(msToNs(100), msToNs(200));
    job->schedule();
    sim.runUntil(msToNs(200));
    EXPECT_LT(job->windowIos(), job->totalIos());
    EXPECT_EQ(job->windowIos(), job->latency().count());
}

TEST_F(JobFixture, WindowBandwidthMatchesBytes)
{
    JobSpec spec = batchApp("batch", msToNs(300));
    auto job = makeJob(spec);
    job->setMeasureWindow(msToNs(100), msToNs(300));
    job->schedule();
    sim.runUntil(msToNs(300));
    double expect = static_cast<double>(job->windowBytes()) / 0.2;
    EXPECT_NEAR(job->windowBandwidth(), expect, expect * 1e-9 + 1.0);
}

TEST_F(JobFixture, InvalidSpecsRejected)
{
    JobSpec zero_bs = lcApp("bad", msToNs(10));
    zero_bs.block_size = 0;
    EXPECT_THROW(makeJob(zero_bs), FatalError);

    JobSpec zero_qd = lcApp("bad", msToNs(10));
    zero_qd.iodepth = 0;
    EXPECT_THROW(makeJob(zero_qd), FatalError);

    JobSpec bad_mix = lcApp("bad", msToNs(10));
    bad_mix.read_fraction = 1.5;
    EXPECT_THROW(makeJob(bad_mix), FatalError);
}

TEST_F(JobFixture, AppProfilesMatchPaperShapes)
{
    JobSpec lc = lcApp("lc", secToNs(int64_t{1}));
    EXPECT_EQ(lc.iodepth, 1u);
    EXPECT_EQ(lc.block_size, 4 * KiB);

    JobSpec batch = batchApp("b", secToNs(int64_t{1}));
    EXPECT_EQ(batch.iodepth, 256u);

    JobSpec fig2 = fig2App("a", 0, secToNs(int64_t{5}));
    EXPECT_EQ(fig2.block_size, 64 * KiB);
    EXPECT_EQ(fig2.iodepth, 8u);
    EXPECT_EQ(fig2.rate_bps, 1536 * MiB);
}

} // namespace
} // namespace isol::workload
