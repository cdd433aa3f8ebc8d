/**
 * @file
 * Event budget per I/O. Event counts are exact, so these tests pin how
 * many events each stage of the I/O path costs without any timing
 * noise:
 *  - an SSD read takes three events (die, channel, completion): the
 *    host link and the controller latency fold into the completion;
 *  - an SSD write reaches the write cache one event after submission;
 *  - a whole 4 KiB read costs 5 events under `none` and 7 under
 *    mq-deadline (the insert and dispatch locks), and a submitter's lock
 *    spin costs CPU time but no event;
 *  - an io.cost wake never fires before its head request is admissible.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "blk/block_device.hh"
#include "blk/qos_cost.hh"
#include "cgroup/cgroup.hh"
#include "host/cpu.hh"
#include "host/engine.hh"
#include "sim/simulator.hh"
#include "ssd/config.hh"
#include "ssd/device.hh"
#include "workload/app_profiles.hh"
#include "workload/job.hh"

namespace isol
{
namespace
{

/** The 980 PRO preset with every random latency term off. */
ssd::SsdConfig
exactFlash()
{
    ssd::SsdConfig cfg = ssd::samsung980ProLike();
    cfg.latency_jitter = 0.0;
    cfg.slow_read_prob = 0.0;
    return cfg;
}

SimTime
xferNs(uint64_t bytes, uint64_t bw)
{
    return static_cast<SimTime>(static_cast<double>(bytes) /
                                static_cast<double>(bw) * 1e9);
}

TEST(EventBudget, SsdReadIsThreeEvents)
{
    sim::Simulator sim;
    ssd::SsdConfig cfg = exactFlash();
    ssd::SsdDevice ssd(sim, cfg, 1);
    SimTime done_at = -1;
    ssd.submit(OpType::kRead, 0, 4 * KiB, [&] { done_at = sim.now(); });
    sim.runAll();
    EXPECT_EQ(sim.eventsExecuted(), 3u); // die, channel, completion
    EXPECT_EQ(done_at, cfg.read_latency +
                           xferNs(cfg.page_size, cfg.channel_bw) +
                           xferNs(4 * KiB, cfg.link_bw) +
                           cfg.controller_latency);
}

TEST(EventBudget, SsdWriteAdmitsOneEventPastTheLink)
{
    sim::Simulator sim;
    ssd::SsdConfig cfg = exactFlash();
    ssd::SsdDevice ssd(sim, cfg, 1);
    SimTime done_at = -1;
    ssd.submit(OpType::kWrite, 0, 4 * KiB, [&] { done_at = sim.now(); });
    ASSERT_TRUE(sim.step());
    EXPECT_EQ(done_at,
              xferNs(4 * KiB, cfg.link_bw) + cfg.controller_latency);
    EXPECT_EQ(sim.eventsExecuted(), 1u);
    EXPECT_EQ(ssd.writesCompleted(), 1u);
}

/** Read jobs on their own cores driving one block device to the end. */
struct PathFixture
{
    explicit PathFixture(blk::ElevatorType elevator)
        : ssd(sim, exactFlash(), 3),
          bdev(sim, tree, ssd, [&] {
              blk::BlockDeviceConfig cfg;
              cfg.elevator = elevator;
              return cfg;
          }()),
          cpus(sim, 4)
    {
        tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
        cg = &tree.createChild(tree.root(), "app");
        bdev.start();
    }

    /** Runs `jobs` QD8 4 KiB random-read jobs for 2 ms, then drains. */
    void
    run(uint32_t jobs)
    {
        for (uint32_t i = 0; i < jobs; ++i) {
            workload::JobSpec spec = workload::lcApp("r", usToNs(2000));
            spec.iodepth = 8;
            spec.seed = i + 1;
            fio.push_back(std::make_unique<workload::FioJob>(
                sim, spec, bdev, cpus.core(i % cpus.numCores()),
                host::ioUringEngine(), tree, cg, i + 1));
            fio.back()->schedule();
        }
        sim.runAll();
    }

    uint64_t
    ios() const
    {
        uint64_t total = 0;
        for (const auto &job : fio)
            total += job->totalIos();
        return total;
    }

    uint64_t
    cpuWorkItems() const
    {
        uint64_t total = 0;
        for (uint32_t i = 0; i < cpus.numCores(); ++i)
            total += cpus.core(i).workItems();
        return total;
    }

    sim::Simulator sim;
    cgroup::CgroupTree tree;
    ssd::SsdDevice ssd;
    blk::BlockDevice bdev;
    host::CpuSet cpus;
    cgroup::Cgroup *cg = nullptr;
    std::vector<std::unique_ptr<workload::FioJob>> fio;
};

TEST(EventBudget, NoneReadIsFiveEventsPerIo)
{
    PathFixture f(blk::ElevatorType::kNone);
    f.run(4);
    ASSERT_GT(f.ios(), 100u);
    // Per job: start and stop. Per I/O: submit retire, die, channel,
    // completion, reap retire.
    EXPECT_EQ(f.sim.eventsExecuted(), 2 * 4 + 5 * f.ios());
    EXPECT_EQ(f.cpuWorkItems(), 2 * f.ios());
}

TEST(EventBudget, MqDeadlineSpinIsBookedNotScheduled)
{
    PathFixture f(blk::ElevatorType::kMqDeadline);
    f.run(4);
    ASSERT_GT(f.ios(), 100u);
    // The insert and dispatch locks add two events per I/O...
    EXPECT_EQ(f.sim.eventsExecuted(), 2 * 4 + 7 * f.ios());
    // ...and the lock spins, extra CPU work items, add none.
    EXPECT_GT(f.cpuWorkItems(), 2 * f.ios());
}

TEST(EventBudget, IoCostWakesNeverFireEarly)
{
    sim::Simulator sim;
    cgroup::CgroupTree tree;
    tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
    cgroup::Cgroup &cg = tree.createChild(tree.root(), "a");
    tree.attachProcess(cg);
    // 3000 IOPS at a fixed vrate of 70%: each read's wait for the
    // device clock is not a whole number of ns.
    cgroup::IoCostModel model;
    model.user = true;
    model.rbps = 100ull * GiB;
    model.rrandiops = 3000;
    model.rseqiops = 3000;
    tree.setCostModel(0, model);
    cgroup::IoCostQos qos;
    qos.rpct = 0.0;
    qos.wpct = 0.0;
    qos.vrate_min = 70.0;
    qos.vrate_max = 70.0;
    tree.setCostQos(0, qos);

    uint64_t passed = 0;
    blk::IoCostGate gate(sim, 0, tree, [&](blk::Request *) { ++passed; });
    gate.start();
    std::vector<blk::Request> reqs(2000);
    for (blk::Request &req : reqs) {
        req.op = OpType::kRead;
        req.size = 4 * KiB;
        req.cg = &cg;
        gate.submit(&req);
    }
    sim.runUntil(msToNs(200));
    // Past the margin's burst, every admission is a wake's.
    EXPECT_GT(passed, 400u);
    EXPECT_LT(passed, reqs.size());
    EXPECT_EQ(gate.idleWakes(), 0u);
}

} // namespace
} // namespace isol
