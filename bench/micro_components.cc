/**
 * @file
 * google-benchmark micro benchmarks for the simulator components: event
 * queue throughput, histogram recording and percentile queries, FTL
 * write/GC bookkeeping, iocost accounting, and a small end-to-end
 * simulation. These are for looking at one component in isolation; the
 * performance gate is perfbench, end to end (tools/perf_gate.py).
 */

#include <benchmark/benchmark.h>

#include <functional>

#include "bench_util.hh"
#include "blk/qos_cost.hh"
#include "cgroup/cgroup.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "isolbench/scenario.hh"
#include "isolbench/sweep.hh"
#include "sim/simulator.hh"
#include "ssd/config.hh"
#include "ssd/device.hh"
#include "ssd/ftl.hh"
#include "stats/histogram.hh"

using namespace isol;

namespace
{

/** Reschedule-horizon distribution of a queue workload. */
enum class Horizon
{
    kUniform, //!< flat over ~1 ms of simulated time
    kClustered, //!< short timers near now (the DES common case)
    kBimodal, //!< mostly short with a far-future tail
};

constexpr const char *kHorizonNames[] = {"uniform", "clustered",
                                         "bimodal"};

/**
 * Pop through the single-settle call Simulator runs, so the queue
 * numbers time the shipped dispatch path.
 */
SimTime
popAndFire(sim::EventQueue &q)
{
    SimTime now = 0;
    sim::EventQueue::Callback cb;
    q.popIfAtOrBefore(kSimTimeMax, now, cb);
    cb();
    return now;
}

/**
 * Steady-state schedule/pop/cancel mix under a chosen horizon
 * distribution: every iteration pops and reschedules, every eighth
 * schedules a far-future event that a later batch cancels while it is
 * still pending. Returns primitive queue operations performed.
 */
uint64_t
horizonWorkload(Horizon kind, uint64_t iterations, uint64_t depth)
{
    sim::EventQueue q;
    Rng rng(11);
    uint64_t fired = 0;
    uint64_t ops = 0;
    auto next = [&](SimTime now) -> SimTime {
        switch (kind) {
          case Horizon::kUniform:
            return now + 1 + static_cast<SimTime>(rng.below(1 << 20));
          case Horizon::kClustered:
            return now + 1 + static_cast<SimTime>(rng.below(2000));
          case Horizon::kBimodal:
            return rng.below(10) < 8
                       ? now + 1 + static_cast<SimTime>(rng.below(500))
                       : now + 500000 +
                             static_cast<SimTime>(rng.below(5000));
        }
        return now + 1;
    };
    std::vector<uint64_t> cancellable;
    cancellable.reserve(32);
    for (uint64_t i = 0; i < depth; ++i) {
        q.schedule(next(0), [&fired] { ++fired; });
        ++ops;
    }
    for (uint64_t i = 0; i < iterations; ++i) {
        SimTime now = popAndFire(q);
        ++ops;
        q.schedule(next(now), [&fired] { ++fired; });
        ++ops;
        if ((i & 7) == 0) {
            cancellable.push_back(q.schedule(next(now) + 10000000,
                                             [&fired] { ++fired; }));
            ++ops;
            if (cancellable.size() >= 32) {
                for (uint64_t id : cancellable) {
                    q.cancel(id);
                    ++ops;
                }
                cancellable.clear();
            }
        }
    }
    while (!q.empty()) {
        popAndFire(q);
        ++ops;
    }
    return ops;
}

/**
 * Schedule/pop/cancel mix on a steady-state queue of ~1280 events:
 * every iteration pops and reschedules, and every fourth iteration
 * schedules a far-future event that is later cancelled while still
 * pending. Returns the number of primitive queue operations performed.
 */
uint64_t
mixedQueueWorkload(uint64_t iterations)
{
    sim::EventQueue q;
    Rng rng(7);
    uint64_t fired = 0;
    uint64_t ops = 0;
    std::vector<uint64_t> cancellable;
    cancellable.reserve(16);

    for (int i = 0; i < 1024; ++i) {
        q.schedule(static_cast<SimTime>(rng.below(1000)),
                   [&fired] { ++fired; });
        ++ops;
    }
    for (uint64_t i = 0; i < iterations; ++i) {
        SimTime now = popAndFire(q);
        ++ops;
        q.schedule(now + 1 + static_cast<SimTime>(rng.below(1000)),
                   [&fired] { ++fired; });
        ++ops;
        if ((i & 3) == 0) {
            // Far enough out that the id is still pending when the
            // batch below cancels it.
            cancellable.push_back(q.schedule(
                now + 100000 + static_cast<SimTime>(rng.below(1000)),
                [&fired] { ++fired; }));
            ++ops;
            if (cancellable.size() >= 16) {
                for (uint64_t id : cancellable) {
                    q.cancel(id);
                    ++ops;
                }
                cancellable.clear();
            }
        }
    }
    while (!q.empty()) {
        popAndFire(q);
        ++ops;
    }
    return ops;
}

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator sim;
        int fired = 0;
        for (int i = 0; i < 1024; ++i)
            sim.at(i * 100, [&fired] { ++fired; });
        sim.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueCascade(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator sim;
        int depth = 0;
        std::function<void()> chain = [&] {
            if (++depth < 4096)
                sim.after(nsToNs(10), chain);
        };
        sim.after(nsToNs(10), chain);
        sim.runAll();
        benchmark::DoNotOptimize(depth);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EventQueueCascade);

void
BM_EventQueueMixed(benchmark::State &state)
{
    uint64_t ops = 0;
    for (auto _ : state)
        ops += mixedQueueWorkload(1 << 20);
    state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_EventQueueMixed)->Unit(benchmark::kMillisecond);

void
BM_EventQueueHorizon(benchmark::State &state)
{
    auto kind = static_cast<Horizon>(state.range(0));
    uint64_t ops = 0;
    for (auto _ : state)
        ops += horizonWorkload(kind, 1 << 18, 8192);
    state.SetItemsProcessed(static_cast<int64_t>(ops));
    state.SetLabel(kHorizonNames[state.range(0)]);
}
BENCHMARK(BM_EventQueueHorizon)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/** One tiny end-to-end scenario, as the sweep-throughput work unit. */
uint64_t
runMiniScenario(uint64_t seed)
{
    isolbench::ScenarioConfig cfg;
    cfg.name = strCat("micro-sweep-", seed);
    cfg.knob = isolbench::Knob::kIoCost;
    cfg.num_cores = 4;
    cfg.duration = msToNs(60);
    cfg.warmup = msToNs(20);
    cfg.seed = seed;
    isolbench::Scenario scenario(cfg);
    scenario.addApp(workload::lcApp("lc", cfg.duration), "lc");
    scenario.addApp(workload::beApp("be", cfg.duration), "be");
    scenario.run();
    return scenario.sim().eventsExecuted();
}

void
BM_SweepFanout(benchmark::State &state)
{
    uint64_t events = 0;
    for (auto _ : state) {
        auto per_run = isolbench::sweep::map<uint64_t>(
            8, [](size_t i) { return runMiniScenario(i + 1); });
        for (uint64_t e : per_run)
            events += e;
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_SweepFanout)->Unit(benchmark::kMillisecond);

void
BM_HistogramRecord(benchmark::State &state)
{
    stats::Histogram hist;
    Rng rng(1);
    for (auto _ : state)
        hist.record(static_cast<int64_t>(rng.below(10000000)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void
BM_HistogramPercentile(benchmark::State &state)
{
    stats::Histogram hist;
    Rng rng(1);
    for (int i = 0; i < 100000; ++i)
        hist.record(static_cast<int64_t>(rng.below(10000000)));
    for (auto _ : state)
        benchmark::DoNotOptimize(hist.percentile(99.0));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramPercentile);

void
BM_FtlRandomWrite(benchmark::State &state)
{
    ssd::SsdConfig cfg = ssd::samsung980ProLike();
    cfg.user_capacity = 256 * MiB;
    cfg.channels = 4;
    cfg.dies_per_channel = 4;
    ssd::Ftl ftl(cfg);
    Rng rng(1);
    ftl.preconditionSequentialFill(1.0);
    for (auto _ : state)
        ftl.preconditionRandomOverwrite(1, rng);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FtlRandomWrite);

void
BM_FtlPrecondition(benchmark::State &state)
{
    // A whole fill plus two random-overwrite passes, the set-up of every
    // write scenario: exercises the draw look-ahead and bulk GC moves.
    ssd::SsdConfig cfg = ssd::samsung980ProLike();
    cfg.user_capacity = 256 * MiB;
    cfg.channels = 4;
    cfg.dies_per_channel = 4;
    for (auto _ : state) {
        ssd::Ftl ftl(cfg);
        Rng rng(1);
        ftl.preconditionSequentialFill(1.0);
        ftl.preconditionRandomOverwrite(cfg.numLogicalPages() * 2, rng);
        benchmark::DoNotOptimize(ftl.gcPagesMoved());
    }
    state.SetItemsProcessed(state.iterations() * cfg.numLogicalPages() * 3);
}
BENCHMARK(BM_FtlPrecondition)->Unit(benchmark::kMillisecond);

void
BM_IoCostAbsCost(benchmark::State &state)
{
    sim::Simulator sim;
    cgroup::CgroupTree tree;
    blk::IoCostGate gate(sim, 0, tree, [](blk::Request *) {});
    blk::Request req;
    req.op = OpType::kRead;
    req.size = 4096;
    for (auto _ : state)
        benchmark::DoNotOptimize(gate.absCost(req));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IoCostAbsCost);

void
BM_SsdRandomRead4k(benchmark::State &state)
{
    // Whole-device random-read throughput: events per simulated I/O.
    for (auto _ : state) {
        sim::Simulator sim;
        ssd::SsdDevice dev(sim, ssd::samsung980ProLike(), 3);
        Rng rng(3);
        uint64_t completed = 0;
        std::function<void()> issue = [&] {
            uint64_t off = rng.below(2097152) * 4096;
            dev.submit(OpType::kRead, off, 4096, [&] {
                ++completed;
                if (sim.now() < msToNs(5))
                    issue();
            });
        };
        for (int i = 0; i < 256; ++i)
            issue();
        sim.runUntil(msToNs(5));
        benchmark::DoNotOptimize(completed);
        state.SetItemsProcessed(
            static_cast<int64_t>(sim.eventsExecuted()));
    }
}
BENCHMARK(BM_SsdRandomRead4k)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    // Anything google-benchmark did not consume goes through the shared
    // bench flags (--jobs, --adversary, --check-invariants), which
    // abort on real typos.
    bench::parseArgs(argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
