/**
 * @file
 * Unit tests for the host CPU model and the storage-engine cost model.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/logging.hh"
#include "host/cpu.hh"
#include "host/engine.hh"
#include "sim/simulator.hh"

namespace isol::host
{
namespace
{

TEST(CpuCore, SerializesWork)
{
    sim::Simulator sim;
    CpuCore core(sim, 0);
    std::vector<SimTime> done;
    core.charge(1, 100, [&] { done.push_back(sim.now()); });
    core.charge(2, 50, [&] { done.push_back(sim.now()); });
    sim.runAll();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], 100);
    EXPECT_EQ(done[1], 150);
    EXPECT_EQ(core.busyNs(), 150);
}

TEST(CpuCore, IdleGapsNotBusy)
{
    sim::Simulator sim;
    CpuCore core(sim, 0);
    core.charge(1, 10, [] {});
    sim.at(1000, [&] { core.charge(1, 10, [] {}); });
    sim.runAll();
    EXPECT_EQ(core.busyNs(), 20);
    EXPECT_EQ(sim.now(), 1010);
}

TEST(CpuCore, ContextSwitchesCountOwnerChanges)
{
    sim::Simulator sim;
    CpuCore core(sim, 0);
    core.charge(1, 10, [] {});
    core.charge(1, 10, [] {}); // same owner: no switch
    core.charge(2, 10, [] {}); // switch
    core.charge(1, 10, [] {}); // switch
    sim.runAll();
    // Initial owner is kKernelTask, so the first charge also switches.
    EXPECT_EQ(core.contextSwitches(), 3u);
    EXPECT_EQ(core.workItems(), 4u);
}

TEST(CpuCore, BacklogReflectsQueuedWork)
{
    sim::Simulator sim;
    CpuCore core(sim, 0);
    EXPECT_EQ(core.backlog(), 0);
    core.charge(1, 500, [] {});
    core.charge(1, 500, [] {});
    EXPECT_EQ(core.backlog(), 1000);
}

TEST(CpuCore, BookMatchesChargeWithoutAnEvent)
{
    sim::Simulator booked_sim;
    sim::Simulator charged_sim;
    CpuCore booked(booked_sim, 0);
    CpuCore charged(charged_sim, 0);
    const std::vector<std::pair<TaskId, SimTime>> work = {
        {1, 100}, {1, 20}, {2, 0}, {1, 50}};
    for (const auto &[owner, duration] : work) {
        EXPECT_EQ(booked.book(owner, duration),
                  charged.charge(owner, duration, [] {}));
    }
    EXPECT_TRUE(booked_sim.idle());
    EXPECT_EQ(booked.busyUntil(), charged.busyUntil());
    EXPECT_EQ(booked.busyNs(), charged.busyNs());
    EXPECT_EQ(booked.workItems(), charged.workItems());
    EXPECT_EQ(booked.contextSwitches(), charged.contextSwitches());
    EXPECT_EQ(booked.contextSwitches(), 3u);
    // Booked work delays later charged work like charged work does.
    SimTime retired = 0;
    booked.charge(2, 30, [&] { retired = booked_sim.now(); });
    booked_sim.runAll();
    EXPECT_EQ(retired, 200);
}

TEST(CpuSet, RoundRobinAssignment)
{
    sim::Simulator sim;
    CpuSet cpus(sim, 3);
    EXPECT_EQ(cpus.assign().id(), 0u);
    EXPECT_EQ(cpus.assign().id(), 1u);
    EXPECT_EQ(cpus.assign().id(), 2u);
    EXPECT_EQ(cpus.assign().id(), 0u);
}

TEST(CpuSet, Aggregates)
{
    sim::Simulator sim;
    CpuSet cpus(sim, 2);
    cpus.core(0).charge(1, 100, [] {});
    cpus.core(1).charge(2, 200, [] {});
    sim.runAll();
    EXPECT_EQ(cpus.totalBusyNs(), 300);
    EXPECT_EQ(cpus.totalContextSwitches(), 2u);
}

TEST(CpuSet, RejectsZeroCores)
{
    sim::Simulator sim;
    EXPECT_THROW(CpuSet(sim, 0), FatalError);
}

TEST(Engine, Qd1PaysFullSyscalls)
{
    EngineConfig uring = ioUringEngine();
    SimTime qd1 = uring.submitCost(1) + uring.completeCost(1);
    // per_io + 2 * syscall.
    EXPECT_EQ(qd1, uring.per_io_cost + 2 * uring.syscall_cost);
}

TEST(Engine, DeepQueuesAmortise)
{
    EngineConfig uring = ioUringEngine();
    SimTime qd1 = uring.submitCost(1) + uring.completeCost(1);
    SimTime qd256 = uring.submitCost(256) + uring.completeCost(256);
    EXPECT_LT(qd256, qd1 / 2);
    // Amortisation saturates at max_batch.
    EXPECT_EQ(uring.submitCost(256), uring.submitCost(uring.max_batch));
}

TEST(Engine, CostMonotoneInQd)
{
    EngineConfig uring = ioUringEngine();
    SimTime prev = kSimTimeMax;
    for (uint32_t qd : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
        SimTime cost = uring.submitCost(qd) + uring.completeCost(qd);
        EXPECT_LE(cost, prev);
        prev = cost;
    }
}

TEST(Engine, LibaioCostlierThanUring)
{
    EngineConfig uring = ioUringEngine();
    EngineConfig aio = libaioEngine();
    EXPECT_GT(aio.submitCost(1) + aio.completeCost(1),
              uring.submitCost(1) + uring.completeCost(1));
}

} // namespace
} // namespace isol::host
