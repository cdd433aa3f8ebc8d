/**
 * @file
 * Unit tests for the rq-qos gates: io.max token buckets, io.latency
 * window/QD-halving/use_delay mechanics, and io.cost vtime accounting,
 * weights, and qos vrate scaling.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "blk/qos_cost.hh"
#include "blk/qos_latency.hh"
#include "blk/qos_max.hh"
#include "cgroup/cgroup.hh"
#include "sim/simulator.hh"

namespace isol::blk
{
namespace
{

struct QosFixture : public ::testing::Test
{
    QosFixture()
    {
        tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
        cg_a = &tree.createChild(tree.root(), "a");
        cg_b = &tree.createChild(tree.root(), "b");
        tree.attachProcess(*cg_a);
        tree.attachProcess(*cg_b);
    }

    Request *
    makeReq(cgroup::Cgroup *cg, OpType op = OpType::kRead,
            uint32_t size = 4096)
    {
        auto req = std::make_unique<Request>();
        req->op = op;
        req->size = size;
        req->cg = cg;
        req->blk_enter_time = sim.now();
        req->dispatch_time = sim.now();
        reqs.push_back(std::move(req));
        return reqs.back().get();
    }

    sim::Simulator sim;
    cgroup::CgroupTree tree;
    cgroup::Cgroup *cg_a = nullptr;
    cgroup::Cgroup *cg_b = nullptr;
    std::vector<std::unique_ptr<Request>> reqs;
};

// --- io.max ---

TEST_F(QosFixture, IoMaxUnlimitedPassesImmediately)
{
    int passed = 0;
    IoMaxGate gate(sim, 0, tree, [&](Request *) { ++passed; });
    gate.submit(makeReq(cg_a));
    EXPECT_EQ(passed, 1);
    EXPECT_EQ(gate.throttled(), 0u);
}

TEST_F(QosFixture, IoMaxEnforcesBandwidth)
{
    // 4 MiB/s limit, 4 KiB requests -> 1024 IOPS.
    tree.writeFile(*cg_a, "io.max", "259:0 rbps=4194304");
    uint64_t passed_bytes = 0;
    IoMaxGate gate(sim, 0, tree,
                   [&](Request *req) { passed_bytes += req->size; });
    // Offer 4x the limit for one second.
    for (int i = 0; i < 4096; ++i)
        gate.submit(makeReq(cg_a));
    sim.runUntil(secToNs(int64_t{1}));
    double mibs = static_cast<double>(passed_bytes) /
                  static_cast<double>(MiB);
    EXPECT_GT(mibs, 3.2);
    EXPECT_LT(mibs, 4.8);
    EXPECT_GT(gate.throttled(), 0u);
}

TEST_F(QosFixture, IoMaxEnforcesIops)
{
    tree.writeFile(*cg_a, "io.max", "259:0 riops=1000");
    int passed = 0;
    IoMaxGate gate(sim, 0, tree, [&](Request *) { ++passed; });
    for (int i = 0; i < 4000; ++i)
        gate.submit(makeReq(cg_a));
    sim.runUntil(secToNs(int64_t{1}));
    EXPECT_GT(passed, 800);
    EXPECT_LT(passed, 1300);
}

TEST_F(QosFixture, IoMaxSeparatesReadsAndWrites)
{
    tree.writeFile(*cg_a, "io.max", "259:0 rbps=4194304");
    int writes_passed = 0;
    IoMaxGate gate(sim, 0, tree, [&](Request *req) {
        writes_passed += req->op == OpType::kWrite;
    });
    // Writes are unlimited: all pass immediately.
    for (int i = 0; i < 100; ++i)
        gate.submit(makeReq(cg_a, OpType::kWrite));
    EXPECT_EQ(writes_passed, 100);
}

TEST_F(QosFixture, IoMaxPerCgroupIndependent)
{
    tree.writeFile(*cg_a, "io.max", "259:0 riops=100");
    int b_passed = 0;
    IoMaxGate gate(sim, 0, tree,
                   [&](Request *req) { b_passed += req->cg == cg_b; });
    for (int i = 0; i < 50; ++i) {
        gate.submit(makeReq(cg_a));
        gate.submit(makeReq(cg_b));
    }
    // cg_b is unlimited: everything passes now.
    EXPECT_EQ(b_passed, 50);
}

TEST_F(QosFixture, IoMaxIdleCreditCapped)
{
    tree.writeFile(*cg_a, "io.max", "259:0 riops=1000");
    int passed = 0;
    IoMaxGate gate(sim, 0, tree, [&](Request *) { ++passed; });
    // Idle for 10 seconds: must NOT bank 10k IOs of credit.
    sim.runUntil(secToNs(int64_t{10}));
    for (int i = 0; i < 2000; ++i)
        gate.submit(makeReq(cg_a));
    SimTime burst_deadline = sim.now() + msToNs(100);
    sim.runUntil(burst_deadline);
    // One slice (20 ms) of credit plus 100 ms of earning ~ 120 IOs.
    EXPECT_LT(passed, 300);
}

TEST_F(QosFixture, IoMaxFifoWithinCgroup)
{
    tree.writeFile(*cg_a, "io.max", "259:0 riops=100");
    std::vector<Request *> order;
    IoMaxGate gate(sim, 0, tree, [&](Request *req) { order.push_back(req); });
    Request *r1 = makeReq(cg_a);
    Request *r2 = makeReq(cg_a);
    Request *r3 = makeReq(cg_a);
    gate.submit(r1);
    gate.submit(r2);
    gate.submit(r3);
    sim.runUntil(msToNs(100));
    ASSERT_GE(order.size(), 3u);
    EXPECT_EQ(order[0], r1);
    EXPECT_EQ(order[1], r2);
    EXPECT_EQ(order[2], r3);
}

// --- io.latency ---

TEST_F(QosFixture, IoLatencyPassesWithinQd)
{
    int passed = 0;
    IoLatencyGate gate(sim, 0, tree, [&](Request *) { ++passed; });
    gate.start();
    gate.submit(makeReq(cg_a));
    EXPECT_EQ(passed, 1);
    EXPECT_EQ(gate.qdLimit(cg_a), 1024u);
}

TEST_F(QosFixture, IoLatencyHalvesVictimQdOncePerWindow)
{
    tree.writeFile(*cg_a, "io.latency", "259:0 target=100");
    IoLatencyGate gate(sim, 0, tree, [](Request *) {});
    gate.start();
    gate.submit(makeReq(cg_b)); // register the victim group with the gate

    // cg_a completes with 1 ms latency (target 100 us): violated.
    // cg_b (no target) is the victim.
    for (int i = 0; i < 20; ++i) {
        Request *req = makeReq(cg_a);
        gate.submit(req);
        req->blk_enter_time = sim.now() - msToNs(1);
        gate.onComplete(req);
    }
    sim.runUntil(msToNs(501)); // one window tick
    EXPECT_EQ(gate.qdLimit(cg_b), 512u);
    EXPECT_EQ(gate.qdLimit(cg_a), 1024u); // the protected group keeps QD
}

TEST_F(QosFixture, IoLatencyFullThrottleTakesTenWindows)
{
    // O10: QD 1024 -> 1 takes ~10 halvings at one per 500 ms window.
    tree.writeFile(*cg_a, "io.latency", "259:0 target=100");
    IoLatencyGate gate(sim, 0, tree, [](Request *) {});
    gate.start();
    gate.submit(makeReq(cg_b)); // register the victim group with the gate

    std::function<void()> violate = [&] {
        for (int i = 0; i < 20; ++i) {
            Request *req = makeReq(cg_a);
            gate.submit(req);
            req->blk_enter_time = sim.now() - msToNs(1);
            gate.onComplete(req);
        }
    };
    // Violate in every window for 4.4 seconds.
    for (int w = 0; w < 9; ++w)
        sim.at(msToNs(100 + 500 * w), violate);
    sim.runUntil(msToNs(4600));
    EXPECT_EQ(gate.qdLimit(cg_b), 2u); // 1024 / 2^9
    sim.at(msToNs(4700), violate);
    sim.runUntil(msToNs(5100));
    EXPECT_EQ(gate.qdLimit(cg_b), 1u); // fully throttled after ~5 s
}

TEST_F(QosFixture, IoLatencyUnthrottlesInQuarterSteps)
{
    tree.writeFile(*cg_a, "io.latency", "259:0 target=100");
    IoLatencyGate gate(sim, 0, tree, [](Request *) {});
    gate.start();
    gate.submit(makeReq(cg_b)); // register the victim group with the gate
    // One violated window throttles cg_b to 512.
    for (int i = 0; i < 20; ++i) {
        Request *req = makeReq(cg_a);
        gate.submit(req);
        req->blk_enter_time = sim.now() - msToNs(1);
        gate.onComplete(req);
    }
    sim.runUntil(msToNs(501));
    ASSERT_EQ(gate.qdLimit(cg_b), 512u);
    // Quiet window: unthrottle by max_nr_requests / 4 = 256.
    sim.runUntil(msToNs(1001));
    EXPECT_EQ(gate.qdLimit(cg_b), 768u);
    sim.runUntil(msToNs(1501));
    EXPECT_EQ(gate.qdLimit(cg_b), 1024u);
}

TEST_F(QosFixture, IoLatencyUseDelayBlocksRecovery)
{
    tree.writeFile(*cg_a, "io.latency", "259:0 target=100");
    IoLatencyParams params;
    params.max_nr_requests = 4; // tiny so QD 1 is reached quickly
    IoLatencyGate gate(sim, 0, tree, [](Request *) {}, params);
    gate.start();
    gate.submit(makeReq(cg_b)); // register the victim group with the gate

    std::function<void()> violate = [&] {
        for (int i = 0; i < 20; ++i) {
            Request *req = makeReq(cg_a);
            gate.submit(req);
            req->blk_enter_time = sim.now() - msToNs(1);
            gate.onComplete(req);
        }
    };
    // Windows 1..4 violated: QD 4 -> 2 -> 1, then use_delay grows.
    for (int w = 0; w < 4; ++w)
        sim.at(msToNs(100 + 500 * w), violate);
    sim.runUntil(msToNs(2100));
    EXPECT_EQ(gate.qdLimit(cg_b), 1u);
    EXPECT_EQ(gate.useDelay(cg_b), 2u);
    // Two quiet windows only drain use_delay; QD recovers afterwards.
    sim.runUntil(msToNs(2600));
    EXPECT_EQ(gate.qdLimit(cg_b), 1u);
    sim.runUntil(msToNs(3100));
    EXPECT_EQ(gate.qdLimit(cg_b), 1u);
    EXPECT_EQ(gate.useDelay(cg_b), 0u);
    sim.runUntil(msToNs(3600));
    EXPECT_EQ(gate.qdLimit(cg_b), 2u);
}

TEST_F(QosFixture, IoLatencyQdGateQueues)
{
    IoLatencyParams params;
    params.max_nr_requests = 2;
    int passed = 0;
    IoLatencyGate gate(sim, 0, tree, [&](Request *) { ++passed; }, params);
    gate.start();
    Request *r1 = makeReq(cg_a);
    Request *r2 = makeReq(cg_a);
    Request *r3 = makeReq(cg_a);
    gate.submit(r1);
    gate.submit(r2);
    gate.submit(r3);
    EXPECT_EQ(passed, 2);
    EXPECT_EQ(gate.throttled(), 1u);
    gate.onComplete(r1);
    EXPECT_EQ(passed, 3);
}

TEST_F(QosFixture, IoLatencyReadsDoNotCreateState)
{
    IoLatencyGate gate(sim, 0, tree, [](Request *) {});
    gate.start();
    gate.submit(makeReq(cg_a));
    // cg_b was never seen: the reads return the unset defaults...
    EXPECT_EQ(gate.qdLimit(cg_b), 1024u);
    EXPECT_EQ(gate.useDelay(cg_b), 0u);
    // ...and leave the gate tracking cg_a alone, so the window tick's
    // two scans visit one state each.
    EXPECT_EQ(gate.trackedGroups(), 1u);
    sim.runUntil(msToNs(501));
    EXPECT_EQ(gate.trackedGroups(), 1u);
    EXPECT_EQ(gate.bookkeepingOps(), 2u);
}

TEST_F(QosFixture, IoLatencyTargetRewriteJudgesWholeWindow)
{
    tree.writeFile(*cg_a, "io.latency", "259:0 target=2000000"); // 2 ms
    IoLatencyGate gate(sim, 0, tree, [](Request *) {});
    gate.start();
    gate.submit(makeReq(cg_b)); // register the victim group with the gate

    // cg_a completes at 1 ms in each window: within the 2 ms target.
    auto complete_at_1ms = [&] {
        for (int i = 0; i < 20; ++i) {
            Request *req = makeReq(cg_a);
            gate.submit(req);
            req->blk_enter_time = sim.now() - msToNs(1);
            gate.onComplete(req);
        }
    };
    sim.at(msToNs(100), complete_at_1ms);
    sim.at(msToNs(600), complete_at_1ms);
    sim.runUntil(msToNs(501));
    ASSERT_EQ(gate.qdLimit(cg_b), 1024u);

    // Tighten the target after the second window's samples: the tick
    // judges all of them against the new 100 us target.
    sim.runUntil(msToNs(800));
    tree.writeFile(*cg_a, "io.latency", "259:0 target=100");
    EXPECT_EQ(gate.qdLimit(cg_b), 1024u);
    sim.runUntil(msToNs(1001));
    EXPECT_EQ(gate.qdLimit(cg_b), 512u);
}

// --- io.cost ---

TEST_F(QosFixture, IoCostAbsCostFollowsModel)
{
    cgroup::IoCostModel model;
    model.user = true;
    model.rbps = 2400ull * MiB;
    model.rseqiops = 650000;
    model.rrandiops = 600000;
    model.wbps = 450ull * MiB;
    model.wseqiops = 120000;
    model.wrandiops = 110000;
    tree.setCostModel(0, model);
    IoCostGate gate(sim, 0, tree, [](Request *) {});

    Request *small_read = makeReq(cg_a, OpType::kRead, 4096);
    Request *big_read = makeReq(cg_a, OpType::kRead, 256 * 1024);
    Request *small_write = makeReq(cg_a, OpType::kWrite, 4096);
    // Bigger requests cost more; writes cost much more than reads.
    EXPECT_GT(gate.absCost(*big_read), gate.absCost(*small_read) * 10);
    EXPECT_GT(gate.absCost(*small_write), gate.absCost(*small_read) * 3);
}

TEST_F(QosFixture, IoCostSequentialCheaperThanRandom)
{
    IoCostGate gate(sim, 0, tree, [](Request *) {});
    Request *rand_read = makeReq(cg_a, OpType::kRead, 4096);
    rand_read->sequential = false;
    Request *seq_read = makeReq(cg_a, OpType::kRead, 4096);
    seq_read->sequential = true;
    EXPECT_LE(gate.absCost(*seq_read), gate.absCost(*rand_read));
}

TEST_F(QosFixture, IoCostThrottlesToModelRate)
{
    // Model: 1000 rand read IOPS. Offer 4x and expect ~1000/s to pass.
    cgroup::IoCostModel model;
    model.user = true;
    model.rbps = 100ull * GiB; // page cost negligible
    model.rrandiops = 1000;
    model.rseqiops = 1000;
    tree.setCostModel(0, model);
    cgroup::IoCostQos qos; // defaults: no latency percentiles active
    qos.rpct = 0.0;
    qos.wpct = 0.0;
    tree.setCostQos(0, qos);

    int passed = 0;
    IoCostGate gate(sim, 0, tree, [&](Request *) { ++passed; });
    gate.start();
    for (int i = 0; i < 4000; ++i)
        gate.submit(makeReq(cg_a));
    sim.runUntil(secToNs(int64_t{1}));
    EXPECT_GT(passed, 700);
    EXPECT_LT(passed, 1500);
}

TEST_F(QosFixture, IoCostSharesFollowWeights)
{
    tree.writeFile(*cg_a, "io.weight", "300");
    tree.writeFile(*cg_b, "io.weight", "100");
    IoCostGate gate(sim, 0, tree, [](Request *) {});
    gate.submit(makeReq(cg_a));
    gate.submit(makeReq(cg_b));
    EXPECT_NEAR(gate.shareOf(cg_a), 0.75, 1e-9);
    EXPECT_NEAR(gate.shareOf(cg_b), 0.25, 1e-9);
}

TEST_F(QosFixture, IoCostWeightRewriteAppliesAtNextAdmission)
{
    tree.writeFile(*cg_a, "io.weight", "100");
    tree.writeFile(*cg_b, "io.weight", "100");
    IoCostGate gate(sim, 0, tree, [](Request *) {});
    gate.start();
    gate.submit(makeReq(cg_a));
    gate.submit(makeReq(cg_b));
    ASSERT_NEAR(gate.shareOf(cg_a), 0.5, 1e-9);

    // Mid-period (the first tick is at 5 ms): the rewrite bumps the
    // tree version, and the next admission rebuilds the active sums.
    sim.runUntil(msToNs(1));
    tree.writeFile(*cg_a, "io.weight", "300");
    gate.submit(makeReq(cg_a));
    uint64_t ops = gate.bookkeepingOps();
    EXPECT_NEAR(gate.shareOf(cg_a), 0.75, 1e-9);
    EXPECT_NEAR(gate.shareOf(cg_b), 0.25, 1e-9);
    // The admission refreshed cg_a; reading cg_b's stale share costs
    // one chain step (depth 1), and nothing walks the other groups.
    EXPECT_EQ(gate.bookkeepingOps(), ops + 1);
}

TEST_F(QosFixture, IoCostReadsDoNotCreateState)
{
    // A test read of a group the gate never saw must not materialise
    // state that the period timer would then walk.
    IoCostGate gate(sim, 0, tree, [](Request *) {});
    gate.submit(makeReq(cg_a));
    ASSERT_EQ(gate.trackedGroups(), 1u);
    EXPECT_EQ(gate.shareOf(cg_b), 0.0);
    EXPECT_EQ(gate.subtreeAbsOf(cg_b), 0.0);
    EXPECT_EQ(gate.trackedGroups(), 1u);
    EXPECT_NEAR(gate.shareOf(cg_a), 1.0, 1e-9);
}

TEST_F(QosFixture, IoCostWeightDonationOnIdle)
{
    tree.writeFile(*cg_a, "io.weight", "100");
    tree.writeFile(*cg_b, "io.weight", "100");
    IoCostGate gate(sim, 0, tree, [](Request *) {});
    gate.start();
    gate.submit(makeReq(cg_a));
    gate.submit(makeReq(cg_b));
    EXPECT_NEAR(gate.shareOf(cg_a), 0.5, 1e-9);
    // cg_b goes idle; after a few periods its weight is donated.
    std::function<void()> keep_a_active = [&] {
        gate.submit(makeReq(cg_a));
    };
    for (int i = 1; i <= 40; ++i)
        sim.at(msToNs(i), keep_a_active);
    sim.runUntil(msToNs(50));
    EXPECT_NEAR(gate.shareOf(cg_a), 1.0, 1e-9);
}

TEST_F(QosFixture, IoCostWeightedThroughput)
{
    // 3:1 weights with a model of 1000 IOPS: expect ~750 vs ~250.
    cgroup::IoCostModel model;
    model.user = true;
    model.rbps = 100ull * GiB;
    model.rrandiops = 1000;
    tree.setCostModel(0, model);
    cgroup::IoCostQos qos;
    qos.rpct = 0.0;
    qos.wpct = 0.0;
    tree.setCostQos(0, qos);
    tree.writeFile(*cg_a, "io.weight", "300");
    tree.writeFile(*cg_b, "io.weight", "100");

    int passed_a = 0;
    int passed_b = 0;
    IoCostGate gate(sim, 0, tree, [&](Request *req) {
        (req->cg == cg_a ? passed_a : passed_b)++;
    });
    gate.start();
    for (int i = 0; i < 2000; ++i) {
        gate.submit(makeReq(cg_a));
        gate.submit(makeReq(cg_b));
    }
    sim.runUntil(secToNs(int64_t{1}));
    EXPECT_GT(passed_a, 550);
    EXPECT_LT(passed_b, 450);
}

TEST_F(QosFixture, IoCostVrateDropsUnderLatencyViolation)
{
    cgroup::IoCostQos qos;
    qos.rpct = 95.0;
    qos.rlat = usToNs(100);
    qos.vrate_min = 50.0;
    qos.vrate_max = 100.0;
    tree.setCostQos(0, qos);

    IoCostGate gate(sim, 0, tree, [](Request *) {});
    gate.start();
    EXPECT_DOUBLE_EQ(gate.vrate(), 1.0);
    // Feed slow device completions (1 ms) every period.
    std::function<void()> slow = [&] {
        for (int i = 0; i < 10; ++i) {
            Request *req = makeReq(cg_a);
            req->dispatch_time = sim.now() - msToNs(1);
            gate.onComplete(req);
        }
    };
    for (int i = 1; i <= 100; ++i)
        sim.at(msToNs(i), slow);
    // Check just after the last violated period, before recovery starts.
    sim.runUntil(msToNs(101));
    EXPECT_NEAR(gate.vrate(), 0.5, 1e-9); // clamped at min
}

TEST_F(QosFixture, IoCostVrateRecovers)
{
    cgroup::IoCostQos qos;
    qos.rpct = 95.0;
    qos.rlat = usToNs(100);
    qos.vrate_min = 50.0;
    qos.vrate_max = 100.0;
    tree.setCostQos(0, qos);
    IoCostGate gate(sim, 0, tree, [](Request *) {});
    gate.start();
    std::function<void()> slow = [&] {
        Request *req = makeReq(cg_a);
        req->dispatch_time = sim.now() - msToNs(1);
        gate.onComplete(req);
    };
    for (int i = 1; i <= 50; ++i)
        sim.at(msToNs(i), slow);
    sim.runUntil(msToNs(60));
    EXPECT_LT(gate.vrate(), 1.0);
    // Quiet periods: vrate climbs back to max.
    sim.runUntil(msToNs(200));
    EXPECT_DOUBLE_EQ(gate.vrate(), 1.0);
}

TEST_F(QosFixture, IoCostDonationReassignsUnusedBudget)
{
    // A weight-10000 group that barely submits donates its surplus to a
    // busy weight-100 group within a few periods.
    cgroup::IoCostModel model;
    model.user = true;
    model.rbps = 100ull * GiB;
    model.rrandiops = 10000;
    tree.setCostModel(0, model);
    cgroup::IoCostQos qos;
    qos.rpct = 0.0;
    qos.wpct = 0.0;
    tree.setCostQos(0, qos);
    tree.writeFile(*cg_a, "io.weight", "10000");
    tree.writeFile(*cg_b, "io.weight", "100");

    int passed_b = 0;
    IoCostGate gate(sim, 0, tree,
                    [&](Request *req) { passed_b += req->cg == cg_b; });
    gate.start();
    // cg_a: one tiny request per 10 ms. cg_b: constant heavy offer.
    for (int t = 1; t <= 50; ++t) {
        sim.at(msToNs(t * 10), [&] { gate.submit(makeReq(cg_a)); });
        for (int k = 0; k < 40; ++k)
            sim.at(msToNs(t * 2), [&] { gate.submit(makeReq(cg_b)); });
    }
    sim.runUntil(msToNs(500));
    // Without donation cg_b would be capped near 1% of 10k IOPS
    // (~50 IOs in 0.5 s); with donation all 2000 offered IOs pass.
    EXPECT_GE(passed_b, 1900);
}

TEST_F(QosFixture, IoCostFifoWithinGroup)
{
    cgroup::IoCostModel model;
    model.user = true;
    model.rbps = 100ull * GiB;
    model.rrandiops = 100;
    tree.setCostModel(0, model);
    cgroup::IoCostQos qos;
    qos.rpct = 0.0;
    qos.wpct = 0.0;
    tree.setCostQos(0, qos);

    std::vector<Request *> order;
    IoCostGate gate(sim, 0, tree,
                    [&](Request *req) { order.push_back(req); });
    gate.start();
    Request *r1 = makeReq(cg_a);
    Request *r2 = makeReq(cg_a);
    gate.submit(r1);
    gate.submit(r2);
    sim.runUntil(msToNs(100));
    ASSERT_GE(order.size(), 2u);
    EXPECT_EQ(order[0], r1);
    EXPECT_EQ(order[1], r2);
}

// --- Gate state compaction on cgroup removal ---

TEST_F(QosFixture, IoCostGateCompactsStateOnCgroupRemoval)
{
    // Regression: per-group state used to live in a creation-order deque
    // that was never compacted, so a long-lived gate leaked an entry per
    // cgroup ever seen. Removal must swap-remove the state and the
    // shares must renormalise over the survivors.
    tree.writeFile(*cg_a, "io.weight", "300");
    tree.writeFile(*cg_b, "io.weight", "100");
    IoCostGate gate(sim, 0, tree, [](Request *) {});
    gate.submit(makeReq(cg_a));
    gate.submit(makeReq(cg_b));
    sim.runUntil(msToNs(10)); // drain so cg_a's queue is empty
    ASSERT_EQ(gate.trackedGroups(), 2u);
    EXPECT_NEAR(gate.shareOf(cg_a), 0.75, 1e-9);

    tree.detachProcess(*cg_a);
    tree.removeGroup(*cg_a);
    cg_a = nullptr;
    EXPECT_EQ(gate.trackedGroups(), 1u);
    // The survivor (moved by the swap-remove) keeps working and now
    // owns the whole device.
    EXPECT_NEAR(gate.shareOf(cg_b), 1.0, 1e-9);
    gate.submit(makeReq(cg_b));
    EXPECT_NEAR(gate.shareOf(cg_b), 1.0, 1e-9);
}

TEST_F(QosFixture, RecycledCgroupIdGetsFreshGateState)
{
    // Removal returns the dense id to the tree's free list; a new group
    // reusing that id must not inherit the old group's vtime or charges.
    IoCostGate gate(sim, 0, tree, [](Request *) {});
    gate.submit(makeReq(cg_a, OpType::kRead, 64 * KiB));
    sim.runUntil(msToNs(10));
    EXPECT_GT(gate.subtreeAbsOf(cg_a), 0.0);

    cgroup::CgroupId old_id = cg_a->id();
    tree.detachProcess(*cg_a);
    tree.removeGroup(*cg_a);
    cgroup::Cgroup &fresh = tree.createChild(tree.root(), "fresh");
    ASSERT_EQ(fresh.id(), old_id); // LIFO id recycling
    tree.attachProcess(fresh);
    cg_a = nullptr;

    EXPECT_DOUBLE_EQ(gate.subtreeAbsOf(&fresh), 0.0);
    gate.submit(makeReq(&fresh));
    EXPECT_GT(gate.subtreeAbsOf(&fresh), 0.0);
}

TEST_F(QosFixture, IoMaxAndLatencyGatesDropRemovedGroups)
{
    IoMaxGate max_gate(sim, 0, tree, [](Request *) {});
    IoLatencyGate lat_gate(sim, 0, tree, [](Request *) {});
    Request *req = makeReq(cg_a);
    max_gate.submit(req);
    lat_gate.submit(req);
    lat_gate.onComplete(req);
    max_gate.submit(makeReq(cg_b));
    ASSERT_EQ(max_gate.trackedGroups(), 2u);
    ASSERT_EQ(lat_gate.trackedGroups(), 1u);

    tree.detachProcess(*cg_a);
    tree.removeGroup(*cg_a);
    cg_a = nullptr;
    EXPECT_EQ(max_gate.trackedGroups(), 1u);
    EXPECT_EQ(lat_gate.trackedGroups(), 0u);
}

} // namespace
} // namespace isol::blk
