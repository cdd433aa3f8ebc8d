/**
 * @file
 * Zero-allocation steady-state verification.
 *
 * Runs a small fig5-style weighted-fairness scenario (io.cost, two
 * cgroups of batch apps) and counts heap allocations during the second
 * half of the run via the operator-new hook (common/alloc_hook.hh).
 * Once the arenas, ring deques, and the timing-wheel slot pool are warm,
 * the per-I/O hot path — submit, QoS gates, elevator, SSD pipeline,
 * completion — must not touch the heap at all.
 *
 * The assertion is allocations *per simulated I/O*, with a tiny bound
 * rather than literally zero: long-lived containers that grow with
 * simulated time, not with I/O count (time-series bins, histogram
 * buckets, an occasional hash-map rehash), are allowed their rare
 * amortised reallocation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "blk/bfq.hh"
#include "blk/qos_cost.hh"
#include "blk/qos_latency.hh"
#include "blk/qos_max.hh"
#include "common/alloc_hook.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "isolbench/scenario.hh"
#include "sim/event_queue.hh"
#include "sim/invariants.hh"
#include "workload/app_profiles.hh"

namespace isol::isolbench
{
namespace
{

uint64_t
totalIos(Scenario &scenario)
{
    uint64_t total = 0;
    for (uint32_t i = 0; i < scenario.numApps(); ++i)
        total += scenario.app(i).totalIos();
    return total;
}

TEST(ZeroAlloc, SteadyStateHotPathDoesNotAllocate)
{
    if (!common::allocCountingEnabled())
        GTEST_SKIP() << "built without ISOL_COUNT_ALLOCS";

    ScenarioConfig cfg;
    cfg.knob = Knob::kIoCost;
    cfg.duration = msToNs(600);
    cfg.warmup = msToNs(100);
    cfg.check_invariants = false;
    Scenario scenario(cfg);
    for (int i = 0; i < 2; ++i) {
        scenario.addApp(workload::batchApp(strCat("a", i), msToNs(600)),
                        "cga");
        scenario.addApp(workload::batchApp(strCat("b", i), msToNs(600)),
                        "cgb");
    }

    // Let the first 300 ms warm every pool (arena slabs, ring
    // capacities, wheel slots, vector/hash-map capacity), then measure.
    uint64_t ios_at_mark = 0;
    scenario.sim().at(msToNs(300), [&] {
        ios_at_mark = totalIos(scenario);
        common::resetAllocCounters();
    });
    scenario.run();

    common::AllocCounters counters = common::allocCounters();
    uint64_t ios = totalIos(scenario) - ios_at_mark;
    ASSERT_GT(ios, 10000u) << "scenario too small to be meaningful";

    double per_io = static_cast<double>(counters.allocs) /
                    static_cast<double>(ios);
    EXPECT_LT(per_io, 0.01)
        << counters.allocs << " allocations over " << ios
        << " steady-state I/Os (" << counters.bytes << " bytes)";
}

TEST(ZeroAlloc, EventQueueMixDoesNotAllocate)
{
    if (!common::allocCountingEnabled())
        GTEST_SKIP() << "built without ISOL_COUNT_ALLOCS";

    // A mixed timer load on a bare queue: 8192 live clustered timers,
    // every step pops one and reschedules it, and every eighth step also
    // schedules a 10 ms timer that a later batch cancels. Each pass
    // starts with the cursor parked on a multiple of 2^36 ns, far past
    // the last pass, so the replay files every entry in the same bucket
    // as the warm-up pass and must find every arena big enough.
    sim::EventQueue q;
    uint64_t fired = 0;
    // Popping a marker at `base` frees every cancelled entry the last
    // pass left behind, on the way to it, and moves the cursor there.
    auto park = [&q](SimTime base) {
        q.schedule(base, [] {});
        q.pop().second();
    };
    auto pass = [&q, &fired](SimTime base) {
        Rng rng(11);
        auto next = [&rng](SimTime now) {
            return now + 1 + static_cast<SimTime>(rng.below(2000));
        };
        for (int i = 0; i < 8192; ++i)
            q.schedule(next(base), [&fired] { ++fired; });
        std::array<sim::EventId, 32> cancellable{};
        size_t pending = 0;
        for (uint32_t step = 0; step < (1u << 16); ++step) {
            auto [now, cb] = q.pop();
            cb();
            q.schedule(next(now), [&fired] { ++fired; });
            if (step % 8 != 0)
                continue;
            cancellable[pending++] = q.schedule(
                next(now) + msToNs(10), [&fired] { ++fired; });
            if (pending == cancellable.size()) {
                for (sim::EventId id : cancellable)
                    q.cancel(id);
                pending = 0;
            }
        }
        while (!q.empty())
            q.pop().second();
    };

    constexpr SimTime kPassSpan = SimTime{1} << 36;
    park(kPassSpan);
    pass(kPassSpan);
    uint64_t warm_fired = fired;
    park(2 * kPassSpan);
    common::resetAllocCounters();
    pass(2 * kPassSpan);
    common::AllocCounters counters = common::allocCounters();

    EXPECT_EQ(fired, 2 * warm_fired) << "the replay must repeat the pass";
    EXPECT_EQ(counters.allocs, 0u)
        << counters.bytes << " bytes allocated replaying "
        << warm_fired << " queue events";
}

TEST(ZeroAlloc, SteadyStateInteriorIoMaxDoesNotAllocate)
{
    if (!common::allocCountingEnabled())
        GTEST_SKIP() << "built without ISOL_COUNT_ALLOCS";

    // Two pods of eight mixed read/write tenants under pod-level
    // rbps/wbps: throttled tenants park in, and wake from, the pods'
    // intrusive waiter FIFOs, which must not touch the heap.
    ScenarioConfig cfg;
    cfg.knob = Knob::kIoMax;
    cfg.duration = msToNs(600);
    cfg.warmup = msToNs(100);
    cfg.check_invariants = false;
    Scenario scenario(cfg);
    for (int pod = 0; pod < 2; ++pod) {
        for (int i = 0; i < 8; ++i) {
            workload::JobSpec spec = workload::batchApp(
                strCat("p", pod, "t", i), msToNs(600));
            spec.iodepth = 8;
            spec.read_fraction = 0.7;
            scenario.addApp(std::move(spec), strCat("pod", pod, "/t", i));
        }
    }
    for (int pod = 0; pod < 2; ++pod) {
        scenario.tree().writeFile(scenario.group(strCat("pod", pod)),
                                  "io.max",
                                  strCat("259:0 rbps=", 64 * MiB,
                                         " wbps=", 32 * MiB));
    }

    uint64_t ios_at_mark = 0;
    scenario.sim().at(msToNs(300), [&] {
        ios_at_mark = totalIos(scenario);
        common::resetAllocCounters();
    });
    scenario.run();

    common::AllocCounters counters = common::allocCounters();
    uint64_t ios = totalIos(scenario) - ios_at_mark;
    ASSERT_GT(ios, 10000u) << "scenario too small to be meaningful";
    ASSERT_GT(scenario.device(0).ioMaxGate()->throttled(), 0u)
        << "the pod limits must throttle";

    double per_io = static_cast<double>(counters.allocs) /
                    static_cast<double>(ios);
    EXPECT_LT(per_io, 0.01)
        << counters.allocs << " allocations over " << ios
        << " steady-state I/Os (" << counters.bytes << " bytes)";
}

TEST(ZeroAlloc, PreconditionedRandomWritesDoNotAllocate)
{
    if (!common::allocCountingEnabled())
        GTEST_SKIP() << "built without ISOL_COUNT_ALLOCS";

    // A small preconditioned drive under sustained 4 KiB random writes:
    // overwrites, host programs, GC moves and erases all update the flat
    // P2L map in place, which must not touch the heap.
    ScenarioConfig cfg;
    cfg.knob = Knob::kNone;
    cfg.duration = msToNs(1500); // write-bound: ~16 k IOPS
    cfg.warmup = msToNs(100);
    cfg.check_invariants = false;
    cfg.precondition = true;
    cfg.device.user_capacity = 256 * MiB;
    cfg.device.channels = 4;
    cfg.device.dies_per_channel = 4;
    Scenario scenario(cfg);
    for (int i = 0; i < 2; ++i) {
        workload::JobSpec spec =
            workload::batchApp(strCat("w", i), msToNs(1500));
        spec.op = OpType::kWrite;
        spec.read_fraction = 0.0;
        scenario.addApp(std::move(spec), "cgw");
    }

    const ssd::Ftl &ftl = scenario.ssd(0).ftl();
    uint64_t ios_at_mark = 0;
    uint64_t moved_at_mark = 0;
    uint64_t erased_at_mark = 0;
    scenario.sim().at(msToNs(500), [&] {
        ios_at_mark = totalIos(scenario);
        moved_at_mark = ftl.gcPagesMoved();
        erased_at_mark = ftl.blocksErased();
        common::resetAllocCounters();
    });
    scenario.run();

    common::AllocCounters counters = common::allocCounters();
    uint64_t ios = totalIos(scenario) - ios_at_mark;
    ASSERT_GT(ios, 10000u) << "scenario too small to be meaningful";
    ASSERT_GT(ftl.gcPagesMoved(), moved_at_mark) << "GC must move pages";
    ASSERT_GT(ftl.blocksErased(), erased_at_mark) << "GC must erase";

    double per_io = static_cast<double>(counters.allocs) /
                    static_cast<double>(ios);
    EXPECT_LT(per_io, 0.01)
        << counters.allocs << " allocations over " << ios
        << " steady-state I/Os (" << counters.bytes << " bytes)";
}

TEST(ZeroAlloc, CgroupChurnReleasesGateState)
{
    if (!common::allocCountingEnabled())
        GTEST_SKIP() << "built without ISOL_COUNT_ALLOCS";

    // 1000 cgroups created, exercised through all four per-cgroup state
    // holders (io.cost, io.max, io.latency, bfq), then removed — in
    // batches, so the arenas see constant churn. Removal listeners must
    // drop every per-group state and the tree must recycle ids: neither
    // gate state nor id capacity may grow with the total number of
    // groups ever created, and heap traffic must balance out.
    sim::Simulator sim;
    cgroup::CgroupTree tree;
    tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");

    blk::IoCostGate cost(sim, 0, tree, [](blk::Request *) {});
    blk::IoMaxGate iomax(sim, 0, tree, [](blk::Request *) {});
    blk::IoLatencyGate iolat(sim, 0, tree, [](blk::Request *) {});
    blk::BfqParams bfq_params;
    bfq_params.slice_idle = 0; // drain synchronously between batches
    blk::Bfq bfq(sim, tree, bfq_params);

    auto exercise = [&](cgroup::Cgroup &cg, blk::Request &req) {
        req.op = OpType::kRead;
        req.size = 4096;
        req.cg = &cg;
        req.blk_enter_time = sim.now();
        req.dispatch_time = sim.now();
        cost.submit(&req);
        iomax.submit(&req);
        iolat.submit(&req);
        iolat.onComplete(&req);
        bfq.insert(&req);
        while (bfq.selectNext() != nullptr) {
        }
    };

    // Warm the arenas with one throwaway batch before measuring, so
    // first-growth reallocations don't count against the churn.
    constexpr int kBatch = 8;
    constexpr int kBatches = 125; // kBatch * kBatches = 1000 groups
    blk::Request req;
    for (int b = 0; b < kBatches + 1; ++b) {
        if (b == 1)
            common::resetAllocCounters();
        std::vector<cgroup::Cgroup *> batch;
        for (int i = 0; i < kBatch; ++i) {
            cgroup::Cgroup &cg =
                tree.createChild(tree.root(), strCat("churn", i));
            tree.attachProcess(cg);
            tree.writeFile(cg, "io.weight", "200");
            exercise(cg, req);
            batch.push_back(&cg);
        }
        for (cgroup::Cgroup *cg : batch) {
            tree.detachProcess(*cg);
            tree.removeGroup(*cg);
        }
    }

    // Every gate dropped every removed group's state...
    EXPECT_EQ(cost.trackedGroups(), 0u);
    EXPECT_EQ(iomax.trackedGroups(), 0u);
    EXPECT_EQ(iomax.parkedWaiters(), 0u);
    EXPECT_EQ(iolat.trackedGroups(), 0u);
    EXPECT_EQ(bfq.trackedQueues(), 0u);
    // ...the tree recycled ids instead of growing its slot table...
    EXPECT_EQ(tree.liveGroupCount(), 1u);
    EXPECT_LE(tree.idCapacity(), static_cast<uint32_t>(2 * kBatch + 1));

    // ...and the heap balanced: what the churn allocated, removal freed.
    common::AllocCounters counters = common::allocCounters();
    EXPECT_GT(counters.frees, 0u);
    int64_t outstanding = static_cast<int64_t>(counters.allocs) -
                          static_cast<int64_t>(counters.frees);
    EXPECT_LT(outstanding, 64)
        << counters.allocs << " allocs vs " << counters.frees
        << " frees across " << kBatch * kBatches << " churned groups";
}

TEST(ZeroAlloc, IoMaxChurnUnderSharedLimitClearsWaiterLinks)
{
    if (!common::allocCountingEnabled())
        GTEST_SKIP() << "built without ISOL_COUNT_ALLOCS";

    // Batches of leaves under one limited pod park in its waiter FIFO,
    // drain, and are removed; recycled ids must start unlinked, the
    // pod's FIFO and wake must be empty between batches, and the heap
    // must balance.
    sim::Simulator sim;
    cgroup::CgroupTree tree;
    tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
    cgroup::Cgroup &pod = tree.createChild(tree.root(), "pod");
    tree.enableIoController(pod);
    tree.writeFile(pod, "io.max", "259:0 rbps=4194304 wbps=4194304");

    sim::InvariantChecker inv("iomax-churn");
    blk::IoMaxGate iomax(sim, 0, tree, [](blk::Request *) {});
    iomax.setInvariants(&inv);

    constexpr int kBatch = 8;
    constexpr int kPerGroup = 4;
    constexpr int kBatches = 125;
    std::vector<blk::Request> reqs(kBatch * kPerGroup);
    size_t max_parked = 0;
    for (int b = 0; b < kBatches + 1; ++b) {
        if (b == 1)
            common::resetAllocCounters();
        std::vector<cgroup::Cgroup *> batch;
        for (int i = 0; i < kBatch; ++i) {
            cgroup::Cgroup &cg = tree.createChild(pod, strCat("churn", i));
            tree.attachProcess(cg);
            batch.push_back(&cg);
            for (int k = 0; k < kPerGroup; ++k) {
                blk::Request &req = reqs[i * kPerGroup + k];
                req.op = k % 2 == 0 ? OpType::kRead : OpType::kWrite;
                req.size = 4096;
                req.cg = &cg;
                iomax.submit(&req);
            }
        }
        max_parked = std::max(max_parked, iomax.parkedWaiters());
        iomax.verifyWaiters();
        sim.runUntil(sim.now() + msToNs(100));
        ASSERT_EQ(iomax.throttled(), 0u) << "batch " << b;
        for (cgroup::Cgroup *cg : batch) {
            tree.detachProcess(*cg);
            tree.removeGroup(*cg);
        }
        EXPECT_EQ(iomax.parkedWaiters(), 0u);
        EXPECT_EQ(iomax.wakeTimeOf(&pod, OpType::kRead), -1);
        EXPECT_EQ(iomax.wakeTimeOf(&pod, OpType::kWrite), -1);
        iomax.verifyWaiters();
    }

    EXPECT_GT(max_parked, 0u);
    EXPECT_EQ(iomax.trackedGroups(), 1u);
    EXPECT_LE(tree.idCapacity(), static_cast<uint32_t>(kBatch + 2));
    common::AllocCounters counters = common::allocCounters();
    int64_t outstanding = static_cast<int64_t>(counters.allocs) -
                          static_cast<int64_t>(counters.frees);
    EXPECT_LT(outstanding, 64)
        << counters.allocs << " allocs vs " << counters.frees
        << " frees across " << kBatch * kBatches << " churned groups";
}

} // namespace
} // namespace isol::isolbench
