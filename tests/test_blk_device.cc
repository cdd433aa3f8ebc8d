/**
 * @file
 * Integration tests for the BlockDevice pipeline: knob wiring, tag
 * limits, dispatch-lock serialization, spin-time model, and end-to-end
 * completion flow against the SSD model.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "blk/block_device.hh"
#include "cgroup/cgroup.hh"
#include "common/rng.hh"
#include "sim/simulator.hh"
#include "ssd/config.hh"
#include "ssd/device.hh"

namespace isol::blk
{
namespace
{

struct BdevFixture : public ::testing::Test
{
    BdevFixture() : ssd(sim, ssd::samsung980ProLike(), 7)
    {
        tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
        cg = &tree.createChild(tree.root(), "app");
        tree.attachProcess(*cg);
    }

    std::unique_ptr<BlockDevice>
    makeBdev(BlockDeviceConfig cfg)
    {
        auto bdev = std::make_unique<BlockDevice>(sim, tree, ssd, cfg);
        bdev->start();
        return bdev;
    }

    Request *
    makeReq(std::function<void()> done, OpType op = OpType::kRead,
            uint32_t size = 4096, uint64_t offset = 0)
    {
        auto req = std::make_unique<Request>();
        req->op = op;
        req->size = size;
        req->offset = offset;
        req->cg = cg;
        req->on_complete = [done = std::move(done)](Request *) { done(); };
        reqs.push_back(std::move(req));
        return reqs.back().get();
    }

    sim::Simulator sim;
    cgroup::CgroupTree tree;
    ssd::SsdDevice ssd;
    cgroup::Cgroup *cg = nullptr;
    std::vector<std::unique_ptr<Request>> reqs;
};

TEST_F(BdevFixture, NoneCompletesEndToEnd)
{
    auto bdev = makeBdev({});
    SimTime done_at = -1;
    bdev->submit(makeReq([&] { done_at = sim.now(); }));
    sim.runAll();
    EXPECT_GT(done_at, usToNs(50));
    EXPECT_LT(done_at, usToNs(200));
    EXPECT_EQ(bdev->completed(), 1u);
    EXPECT_EQ(bdev->inflight(), 0u);
}

TEST_F(BdevFixture, NoneHasNoKnobCpuOrSpin)
{
    auto bdev = makeBdev({});
    EXPECT_EQ(bdev->perIoCpuExtra(), 0);
    EXPECT_EQ(bdev->submitSpinTime(), 0);
}

TEST_F(BdevFixture, KnobCpuExtraPerConfig)
{
    BlockDeviceConfig mq;
    mq.elevator = ElevatorType::kMqDeadline;
    BlockDeviceConfig bfq;
    bfq.elevator = ElevatorType::kBfq;
    BlockDeviceConfig iomax;
    iomax.qos = QosType::kIoMax;
    BlockDeviceConfig iocost;
    iocost.qos = QosType::kIoCost;
    EXPECT_GT(makeBdev(bfq)->perIoCpuExtra(),
              makeBdev(mq)->perIoCpuExtra());
    EXPECT_GT(makeBdev(mq)->perIoCpuExtra(),
              makeBdev(iomax)->perIoCpuExtra());
    EXPECT_GT(makeBdev(iocost)->perIoCpuExtra(), 0);
}

TEST_F(BdevFixture, TagLimitQueuesExcess)
{
    BlockDeviceConfig cfg;
    cfg.nr_requests = 4;
    auto bdev = makeBdev(cfg);
    int done = 0;
    for (int i = 0; i < 10; ++i)
        bdev->submit(makeReq([&] { ++done; }, OpType::kRead, 4096,
                             static_cast<uint64_t>(i) * 4096));
    EXPECT_EQ(bdev->inflight(), 4u);
    EXPECT_EQ(bdev->tagWaiting(), 6u);
    sim.runAll();
    EXPECT_EQ(done, 10);
    EXPECT_EQ(bdev->inflight(), 0u);
}

TEST_F(BdevFixture, DispatchLockSerializesThroughput)
{
    // With a 10 us lock hold (2 acquisitions/request), max ~50k IOPS.
    BlockDeviceConfig cfg;
    cfg.elevator = ElevatorType::kMqDeadline;
    cfg.mq_lock_hold = usToNs(10);
    auto bdev = makeBdev(cfg);
    Rng rng(3);

    int done = 0;
    std::function<void()> issue = [&] {
        uint64_t off = rng.below(1 << 20) * 4096;
        bdev->submit(makeReq([&] {
            ++done;
            if (sim.now() < msToNs(100))
                issue();
        }, OpType::kRead, 4096, off));
    };
    for (int i = 0; i < 512; ++i)
        issue();
    sim.runUntil(msToNs(100));
    double iops = done / 0.1;
    EXPECT_LT(iops, 60000.0);
    EXPECT_GT(iops, 30000.0);
}

TEST_F(BdevFixture, SpinTimeGrowsWithSubmitters)
{
    BlockDeviceConfig cfg;
    cfg.elevator = ElevatorType::kBfq;
    auto bdev = makeBdev(cfg);
    // Saturate the lock so backlog is not the binding term.
    for (int i = 0; i < 64; ++i)
        bdev->submit(makeReq([] {}, OpType::kRead, 4096,
                             static_cast<uint64_t>(i) * 4096));
    SimTime spin0 = bdev->submitSpinTime();
    for (int i = 0; i < 8; ++i)
        bdev->registerSubmitter();
    SimTime spin8 = bdev->submitSpinTime();
    EXPECT_GT(spin8, spin0);
    for (int i = 0; i < 8; ++i)
        bdev->unregisterSubmitter();
    EXPECT_EQ(bdev->submitters(), 0u);
}

TEST_F(BdevFixture, IoMaxPipelineThrottles)
{
    tree.writeFile(*cg, "io.max", "259:0 rbps=4194304"); // 4 MiB/s
    BlockDeviceConfig cfg;
    cfg.qos = QosType::kIoMax;
    auto bdev = makeBdev(cfg);

    uint64_t bytes = 0;
    Rng rng(5);
    std::function<void()> issue = [&] {
        uint64_t off = rng.below(1 << 20) * 4096;
        bdev->submit(makeReq([&] {
            bytes += 4096;
            if (sim.now() < msToNs(500))
                issue();
        }, OpType::kRead, 4096, off));
    };
    for (int i = 0; i < 64; ++i)
        issue();
    sim.runUntil(msToNs(500));
    double mibs = bytesOverNsToMiBs(bytes, msToNs(500));
    EXPECT_LT(mibs, 6.0);
    EXPECT_GT(mibs, 2.5);
}

TEST_F(BdevFixture, IoCostPipelineThrottlesToModel)
{
    cgroup::IoCostModel model;
    model.user = true;
    model.rbps = 100ull * GiB;
    model.rrandiops = 10000;
    model.rseqiops = 10000;
    tree.setCostModel(0, model);
    cgroup::IoCostQos qos;
    qos.rpct = 0.0;
    qos.wpct = 0.0;
    tree.setCostQos(0, qos);

    BlockDeviceConfig cfg;
    cfg.qos = QosType::kIoCost;
    auto bdev = makeBdev(cfg);

    int done = 0;
    Rng rng(5);
    std::function<void()> issue = [&] {
        uint64_t off = rng.below(1 << 20) * 4096;
        bdev->submit(makeReq([&] {
            ++done;
            if (sim.now() < msToNs(500))
                issue();
        }, OpType::kRead, 4096, off));
    };
    for (int i = 0; i < 256; ++i)
        issue();
    sim.runUntil(msToNs(500));
    double iops = done / 0.5;
    EXPECT_LT(iops, 14000.0);
    EXPECT_GT(iops, 7000.0);
}

TEST_F(BdevFixture, IoLatencyPipelineCompletes)
{
    tree.writeFile(*cg, "io.latency", "259:0 target=3000000");
    BlockDeviceConfig cfg;
    cfg.qos = QosType::kIoLatency;
    auto bdev = makeBdev(cfg);
    int done = 0;
    for (int i = 0; i < 100; ++i)
        bdev->submit(makeReq([&] { ++done; }, OpType::kRead, 4096,
                             static_cast<uint64_t>(i) * 4096));
    sim.runUntil(msToNs(100));
    EXPECT_EQ(done, 100);
}

/** Removing a cgroup while a gate holds its I/O is fatal, per gate. */
struct QosRemovalTest : public BdevFixture,
                        public ::testing::WithParamInterface<QosType>
{
};

TEST_P(QosRemovalTest, RemovingGroupWithQueuedIoIsFatal)
{
    cgroup::Cgroup &victim = tree.createChild(tree.root(), "victim");
    BlockDeviceConfig cfg;
    cfg.qos = GetParam();
    switch (cfg.qos) {
      case QosType::kIoMax:
        tree.writeFile(victim, "io.max", "259:0 riops=1");
        break;
      case QosType::kIoLatency:
        cfg.iolat_params.max_nr_requests = 1;
        break;
      case QosType::kIoCost: {
        cgroup::IoCostModel model; // 100 ms per 4 KiB read > margin
        model.user = true;
        model.rbps = 100ull * GiB;
        model.rrandiops = 10;
        model.rseqiops = 10;
        tree.setCostModel(0, model);
        break;
      }
      case QosType::kNone:
        FAIL() << "no gate";
    }
    auto bdev = makeBdev(cfg);
    for (uint64_t i = 0; i < 2; ++i) {
        Request *req = makeReq([] {}, OpType::kRead, 4096, i * 4096);
        req->cg = &victim;
        bdev->submit(req);
    }
    ASSERT_LT(bdev->inflight(), 2u); // the gate holds a request back
    EXPECT_THROW(tree.removeGroup(victim), FatalError);
}

std::string
qosParamName(const ::testing::TestParamInfo<QosType> &info)
{
    const char *const names[] = {"none", "io_max", "io_latency", "io_cost"};
    return names[static_cast<size_t>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(EveryGate, QosRemovalTest,
                         ::testing::Values(QosType::kIoMax,
                                           QosType::kIoLatency,
                                           QosType::kIoCost),
                         qosParamName);

TEST_F(BdevFixture, ZeroSizeRejected)
{
    auto bdev = makeBdev({});
    EXPECT_THROW(bdev->submit(makeReq([] {}, OpType::kRead, 0)),
                 FatalError);
}

TEST_F(BdevFixture, WritesCompleteThroughPipeline)
{
    auto bdev = makeBdev({});
    int done = 0;
    for (int i = 0; i < 32; ++i)
        bdev->submit(makeReq([&] { ++done; }, OpType::kWrite, 4096,
                             static_cast<uint64_t>(i) * 4096));
    sim.runUntil(msToNs(50));
    EXPECT_EQ(done, 32);
    EXPECT_EQ(ssd.bytesWritten(), 32u * 4096u);
}

} // namespace
} // namespace isol::blk
