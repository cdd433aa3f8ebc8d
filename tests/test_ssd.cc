/**
 * @file
 * Unit and integration tests for the SSD model: FIFO resource servers,
 * FTL bookkeeping/GC, and end-to-end device behaviour (latency,
 * saturation, write cache, GC interference, Optane preset).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/simulator.hh"
#include "ssd/config.hh"
#include "ssd/device.hh"
#include "ssd/ftl.hh"
#include "ssd/resource.hh"
#include "stats/histogram.hh"

namespace isol::ssd
{
namespace
{

// A small flash config so FTL/GC tests run fast.
SsdConfig
tinyFlash()
{
    SsdConfig cfg = samsung980ProLike();
    cfg.user_capacity = 64 * MiB;
    cfg.channels = 2;
    cfg.dies_per_channel = 2;
    cfg.pages_per_block = 32;
    cfg.overprovision = 0.25;
    return cfg;
}

TEST(FifoServer, ServesSerially)
{
    sim::Simulator sim;
    FifoServer server(sim);
    std::vector<SimTime> done;
    server.enqueue(100, [&] { done.push_back(sim.now()); });
    server.enqueue(50, [&] { done.push_back(sim.now()); });
    sim.runAll();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], 100);
    EXPECT_EQ(done[1], 150); // waits for the first job
}

TEST(FifoServer, IdleGapsDoNotAccumulate)
{
    sim::Simulator sim;
    FifoServer server(sim);
    SimTime second_done = 0;
    server.enqueue(10, [] {});
    sim.at(1000, [&] {
        server.enqueue(10, [&] { second_done = sim.now(); });
    });
    sim.runAll();
    EXPECT_EQ(second_done, 1010); // starts fresh after the idle gap
    EXPECT_EQ(server.busyNs(), 20);
    EXPECT_EQ(server.jobs(), 2u);
}

TEST(FifoServer, BacklogReporting)
{
    sim::Simulator sim;
    FifoServer server(sim);
    EXPECT_FALSE(server.busy());
    EXPECT_EQ(server.backlog(), 0);
    server.enqueue(100, [] {});
    EXPECT_TRUE(server.busy());
    EXPECT_EQ(server.backlog(), 100);
}

TEST(Ftl, GeometryDerivation)
{
    SsdConfig cfg = tinyFlash();
    Ftl ftl(cfg);
    EXPECT_EQ(ftl.numDies(), 4u);
    // 64 MiB * 1.25 / 4 dies / (32 * 4 KiB) blocks.
    EXPECT_EQ(ftl.blocksPerDie(), 160u);
}

TEST(Ftl, UnmappedReadsResolveToStripe)
{
    Ftl ftl(tinyFlash());
    PhysLoc a = ftl.lookupRead(0);
    PhysLoc b = ftl.lookupRead(1);
    PhysLoc c = ftl.lookupRead(4);
    EXPECT_EQ(a.die, 0u);
    EXPECT_EQ(b.die, 1u);
    EXPECT_EQ(c.die, 0u); // wraps around 4 dies
}

TEST(Ftl, WriteInstallsMapping)
{
    Ftl ftl(tinyFlash());
    uint32_t die = ftl.takeHostWriteDie();
    PhysLoc loc = ftl.commitHostWrite(123, die);
    PhysLoc read = ftl.lookupRead(123);
    EXPECT_EQ(read.die, loc.die);
    EXPECT_EQ(read.block, loc.block);
    EXPECT_EQ(read.page, loc.page);
    EXPECT_EQ(ftl.hostPagesWritten(), 1u);
}

TEST(Ftl, OverwriteInvalidatesOldLocation)
{
    Ftl ftl(tinyFlash());
    ftl.commitHostWrite(7, 0);
    PhysLoc first = ftl.lookupRead(7);
    ftl.commitHostWrite(7, 0);
    PhysLoc second = ftl.lookupRead(7);
    EXPECT_NE(first.page, second.page);
    EXPECT_EQ(ftl.hostPagesWritten(), 2u);
}

TEST(Ftl, RoundRobinWritePointer)
{
    Ftl ftl(tinyFlash());
    EXPECT_EQ(ftl.takeHostWriteDie(), 0u);
    EXPECT_EQ(ftl.takeHostWriteDie(), 1u);
    EXPECT_EQ(ftl.takeHostWriteDie(), 2u);
    EXPECT_EQ(ftl.takeHostWriteDie(), 3u);
    EXPECT_EQ(ftl.takeHostWriteDie(), 0u);
}

TEST(Ftl, SequentialFillLeavesDeviceWritable)
{
    Ftl ftl(tinyFlash());
    ftl.preconditionSequentialFill(1.0);
    for (uint32_t die = 0; die < ftl.numDies(); ++die)
        EXPECT_FALSE(ftl.hostWriteStalled(die)) << "die " << die;
}

TEST(Ftl, RandomOverwriteTriggersGc)
{
    SsdConfig cfg = tinyFlash();
    Ftl ftl(cfg);
    Rng rng(5);
    ftl.preconditionSequentialFill(1.0);
    ftl.preconditionRandomOverwrite(cfg.numLogicalPages() * 2, rng);
    EXPECT_GT(ftl.blocksErased(), 0u);
    EXPECT_GT(ftl.waf(), 1.0);
    // Every die must stay writable in steady state.
    for (uint32_t die = 0; die < ftl.numDies(); ++die)
        EXPECT_FALSE(ftl.hostWriteStalled(die));
}

TEST(Ftl, WafIsBoundedInSteadyState)
{
    SsdConfig cfg = tinyFlash();
    Ftl ftl(cfg);
    Rng rng(5);
    ftl.preconditionSequentialFill(1.0);
    ftl.preconditionRandomOverwrite(cfg.numLogicalPages(), rng);
    ftl.resetStats();
    ftl.preconditionRandomOverwrite(cfg.numLogicalPages(), rng);
    // Greedy GC with 25% OP should keep WAF in a sane band.
    EXPECT_GT(ftl.waf(), 1.0);
    EXPECT_LT(ftl.waf(), 6.0);
}

TEST(Ftl, ResetStatsClearsCounters)
{
    Ftl ftl(tinyFlash());
    ftl.commitHostWrite(1, 0);
    ftl.resetStats();
    EXPECT_EQ(ftl.hostPagesWritten(), 0u);
    EXPECT_EQ(ftl.gcPagesMoved(), 0u);
    EXPECT_EQ(ftl.blocksErased(), 0u);
    EXPECT_DOUBLE_EQ(ftl.waf(), 1.0);
}

TEST(Ftl, FreeFractionDecreasesWithWrites)
{
    Ftl ftl(tinyFlash());
    double before = ftl.freeFraction(0);
    for (int i = 0; i < 1000; ++i)
        ftl.commitHostWrite(static_cast<uint64_t>(i) * 4, 0);
    EXPECT_LT(ftl.freeFraction(0), before);
}

TEST(Ftl, RejectsBadGeometry)
{
    SsdConfig cfg = tinyFlash();
    cfg.channels = 0;
    EXPECT_THROW(Ftl{cfg}, FatalError);

    SsdConfig tiny = tinyFlash();
    tiny.user_capacity = 1 * MiB; // too few blocks per die
    EXPECT_THROW(Ftl{tiny}, FatalError);

    // 2^32 logical pages: the largest geometry the packed mapping allows,
    // one lpn too many for the 32-bit reverse map.
    SsdConfig huge = tinyFlash();
    huge.channels = 16;
    huge.dies_per_channel = 16;
    huge.pages_per_block = 4096;
    huge.overprovision = 0.0;
    huge.user_capacity = (uint64_t{1} << 32) * huge.page_size;
    try {
        Ftl ftl(huge);
        ADD_FAILURE() << "2^32 logical pages accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("32-bit reverse map"),
                  std::string::npos)
            << e.what();
    }
}

// The micro-bench geometry: 256 MiB over 16 dies.
SsdConfig
sixteenDieFlash()
{
    SsdConfig cfg = samsung980ProLike();
    cfg.user_capacity = 256 * MiB;
    cfg.channels = 4;
    cfg.dies_per_channel = 4;
    return cfg;
}

// FNV-1a over the read mapping of every lpn, the GC counters and the
// per-die free space: equal hashes mean equal observable FTL state.
uint64_t
stateHash(const Ftl &ftl, uint64_t num_lpns)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    for (uint64_t lpn = 0; lpn < num_lpns; ++lpn) {
        PhysLoc loc = ftl.lookupRead(lpn);
        mix((uint64_t{loc.die} << 40) | (uint64_t{loc.block} << 20) |
            loc.page);
    }
    mix(ftl.gcPagesMoved());
    mix(ftl.blocksErased());
    for (uint32_t die = 0; die < ftl.numDies(); ++die)
        mix(static_cast<uint64_t>(ftl.freeFraction(die) * 1e9));
    return h;
}

TEST(Ftl, PreconditionStateIsPinned)
{
    // Golden values for a fill plus two random-overwrite passes: any
    // change to the resulting state or to the number of draws fails.
    SsdConfig cfg = sixteenDieFlash();
    Ftl ftl(cfg);
    Rng rng(2024);
    ftl.preconditionSequentialFill(1.0);
    ftl.preconditionRandomOverwrite(cfg.numLogicalPages() * 2, rng);
    EXPECT_EQ(ftl.gcPagesMoved(), 367063u);
    EXPECT_EQ(ftl.blocksErased(), 1900u);
    EXPECT_EQ(stateHash(ftl, cfg.numLogicalPages()),
              14167512026021999929ull);
    // Exactly 2N draws: the generator stands where the per-page loop
    // left it.
    EXPECT_EQ(rng.next(), 8476932936718635849ull);
    std::string error;
    EXPECT_TRUE(ftl.checkInvariants(&error)) << error;
}

TEST(Ftl, LookAheadOverwriteMatchesChunkedCalls)
{
    // One long call draws ahead of its writes; chunks of 1, 7, 16 and 17
    // cut the look-ahead short at every phase. Both must leave the same
    // state and the generator at the same point (no over-draw).
    SsdConfig cfg = sixteenDieFlash();
    const uint64_t n = cfg.numLogicalPages() + 123;
    Ftl whole(cfg);
    Rng whole_rng(99);
    whole.preconditionSequentialFill(1.0);
    whole.preconditionRandomOverwrite(n, whole_rng);

    Ftl chunked(cfg);
    Rng chunked_rng(99);
    chunked.preconditionSequentialFill(1.0);
    const uint64_t sizes[] = {1, 7, 16, 17};
    uint64_t done = 0;
    for (size_t k = 0; done < n; ++k) {
        uint64_t step = std::min(sizes[k % 4], n - done);
        chunked.preconditionRandomOverwrite(step, chunked_rng);
        done += step;
    }
    EXPECT_GT(chunked.gcPagesMoved(), 0u);
    EXPECT_EQ(stateHash(whole, cfg.numLogicalPages()),
              stateHash(chunked, cfg.numLogicalPages()));
    EXPECT_EQ(whole_rng.next(), chunked_rng.next());
}

TEST(Ftl, MultiPageGcMoveMatchesSinglePageMoves)
{
    // Instant GC drains a victim with one multi-page gcCommitMove; the
    // timed GC makes one call per page. Both must make the same moves.
    SsdConfig cfg = sixteenDieFlash();
    Ftl bulk(cfg);
    Ftl single(cfg);
    Rng bulk_rng(5);
    Rng single_rng(5);
    bulk.preconditionSequentialFill(1.0);
    single.preconditionSequentialFill(1.0);
    bulk.preconditionRandomOverwrite(cfg.numLogicalPages(), bulk_rng);
    single.preconditionRandomOverwrite(cfg.numLogicalPages(), single_rng);
    const uint64_t moved_before = bulk.gcPagesMoved();
    for (uint32_t die = 0; die < bulk.numDies(); ++die) {
        ASSERT_TRUE(bulk.gcHasMove(die));
        ASSERT_TRUE(single.gcHasMove(die));
        bulk.gcCommitMove(die, 7);
        for (int k = 0; k < 7; ++k)
            single.gcCommitMove(die);
        bulk.gcCommitMove(die, UINT32_MAX);
        while (single.gcHasMove(die))
            single.gcCommitMove(die);
        ASSERT_TRUE(bulk.victimReadyForErase(die));
        ASSERT_TRUE(single.victimReadyForErase(die));
        bulk.gcCommitMove(die, 3); // drained victim: a moot move
        bulk.gcCommitErase(die);
        single.gcCommitErase(die);
    }
    EXPECT_GT(bulk.gcPagesMoved(), moved_before + 7 * bulk.numDies());
    EXPECT_EQ(bulk.gcPagesMoved(), single.gcPagesMoved());
    EXPECT_EQ(stateHash(bulk, cfg.numLogicalPages()),
              stateHash(single, cfg.numLogicalPages()));
    std::string error;
    EXPECT_TRUE(bulk.checkInvariants(&error)) << error;
}

TEST(Ftl, PartialFillOverwritesOnlyTheFilledRange)
{
    sim::Simulator sim;
    SsdConfig cfg = tinyFlash();
    SsdDevice dev(sim, cfg);
    dev.precondition(0.5, 1.0);
    const Ftl &ftl = dev.ftl();
    const uint64_t filled = cfg.numLogicalPages() / 2;
    uint64_t mapped_low = 0;
    for (uint64_t lpn = 0; lpn < filled; ++lpn)
        mapped_low += ftl.mapped(lpn);
    EXPECT_EQ(mapped_low, filled);
    for (uint64_t lpn = filled; lpn < cfg.numLogicalPages(); ++lpn)
        ASSERT_FALSE(ftl.mapped(lpn)) << "lpn " << lpn;
    std::string error;
    EXPECT_TRUE(ftl.checkInvariants(&error)) << error;
}

TEST(Ftl, DefaultGeometryPreconditionIsConsistent)
{
    sim::Simulator sim;
    SsdDevice dev(sim, samsung980ProLike());
    dev.precondition(1.0, 2.0);
    std::string error;
    EXPECT_TRUE(dev.ftl().checkInvariants(&error)) << error;
}

// --- Device integration ---------------------------------------------------

TEST(SsdDevice, ReadLatencyNearFlashRead)
{
    sim::Simulator sim;
    SsdConfig cfg = samsung980ProLike();
    SsdDevice dev(sim, cfg);
    SimTime done_at = -1;
    dev.submit(OpType::kRead, 0, 4096, [&] { done_at = sim.now(); });
    sim.runAll();
    ASSERT_GT(done_at, 0);
    // tR (with jitter) + channel + link + controller: well under 2x tR.
    EXPECT_GT(done_at, cfg.read_latency / 2);
    EXPECT_LT(done_at, cfg.read_latency * 2);
}

TEST(SsdDevice, WriteCompletesFastViaCache)
{
    sim::Simulator sim;
    SsdConfig cfg = samsung980ProLike();
    SsdDevice dev(sim, cfg);
    SimTime done_at = -1;
    dev.submit(OpType::kWrite, 0, 4096, [&] { done_at = sim.now(); });
    sim.runAll();
    ASSERT_GT(done_at, 0);
    // Cache-acked writes are much faster than a flash program.
    EXPECT_LT(done_at, cfg.program_latency / 2);
    EXPECT_EQ(dev.bytesWritten(), 4096u);
}

TEST(SsdDevice, RandomReadSaturationNearCalibration)
{
    // Keep ~2048 random 4 KiB reads outstanding for 50 ms and check the
    // aggregate bandwidth is near the calibrated ~2.9-3.2 GiB/s point.
    sim::Simulator sim;
    SsdConfig cfg = samsung980ProLike();
    SsdDevice dev(sim, cfg);
    Rng rng(17);

    uint64_t completed_bytes = 0;
    std::function<void()> issue = [&] {
        uint64_t offset = rng.below(cfg.user_capacity / 4096) * 4096;
        dev.submit(OpType::kRead, offset, 4096, [&] {
            completed_bytes += 4096;
            if (sim.now() < msToNs(50))
                issue();
        });
    };
    for (int i = 0; i < 2048; ++i)
        issue();
    sim.runUntil(msToNs(50));

    double gibs = bytesOverNsToGiBs(completed_bytes, msToNs(50));
    EXPECT_GT(gibs, 2.5);
    EXPECT_LT(gibs, 3.4);
}

TEST(SsdDevice, LargeReadsHitLinkCap)
{
    sim::Simulator sim;
    SsdConfig cfg = samsung980ProLike();
    SsdDevice dev(sim, cfg);
    Rng rng(17);

    uint64_t completed_bytes = 0;
    const uint32_t size = 256 * KiB;
    std::function<void()> issue = [&] {
        uint64_t offset = rng.below(cfg.user_capacity / size) * size;
        dev.submit(OpType::kRead, offset, size, [&] {
            completed_bytes += size;
            if (sim.now() < msToNs(50))
                issue();
        });
    };
    for (int i = 0; i < 64; ++i)
        issue();
    sim.runUntil(msToNs(50));

    double gibs = bytesOverNsToGiBs(completed_bytes, msToNs(50));
    // Bounded by the ~3.2 GiB/s host link.
    EXPECT_GT(gibs, 2.3);
    EXPECT_LT(gibs, 3.3);
}

TEST(SsdDevice, SustainedWritesAreProgramBound)
{
    sim::Simulator sim;
    SsdConfig cfg = samsung980ProLike();
    cfg.user_capacity = 256 * MiB; // shrink so preconditioning is fast
    cfg.channels = 4;
    cfg.dies_per_channel = 4; // keep enough blocks per die
    SsdDevice dev(sim, cfg);
    dev.precondition(1.0, 2.0); // deep steady state: stable WAF from t=0
    Rng rng(23);

    uint64_t completed = 0;
    std::function<void()> issue = [&] {
        uint64_t offset = rng.below(cfg.user_capacity / 4096) * 4096;
        dev.submit(OpType::kWrite, offset, 4096, [&] {
            completed += 4096;
            if (sim.now() < msToNs(200))
                issue();
        });
    };
    for (int i = 0; i < 256; ++i)
        issue();
    sim.runUntil(msToNs(200));

    double gibs = bytesOverNsToGiBs(completed, msToNs(200));
    // Far below the read ceiling: programs + GC dominate. The 16-die
    // test device sustains ~0.05 GiB/s (the full 64-die preset ~4x).
    EXPECT_LT(gibs, 1.8);
    EXPECT_GT(gibs, 0.02);
    EXPECT_GT(dev.waf(), 1.0);
    EXPECT_LT(dev.waf(), 30.0);
}

TEST(SsdDevice, GcInterferesWithReads)
{
    // Measure read-only P99, then P99 with concurrent heavy writes; the
    // interference (GC + program occupancy) must raise the tail clearly.
    auto run = [](bool with_writes) {
        sim::Simulator sim;
        SsdConfig cfg = samsung980ProLike();
        cfg.user_capacity = 256 * MiB;
        cfg.channels = 4;
        cfg.dies_per_channel = 4;
        SsdDevice dev(sim, cfg, 99);
        dev.precondition(1.0, 1.0);
        Rng rng(31);
        stats::Histogram lat;

        std::function<void()> read_loop = [&] {
            uint64_t offset = rng.below(cfg.user_capacity / 4096) * 4096;
            SimTime start = sim.now();
            dev.submit(OpType::kRead, offset, 4096, [&, start] {
                lat.record(sim.now() - start);
                if (sim.now() < msToNs(300))
                    read_loop();
            });
        };
        read_loop();

        // Declared at function scope: completion callbacks reference it
        // for the whole run.
        std::function<void()> write_loop = [&] {
            uint64_t off = rng.below(cfg.user_capacity / 4096) * 4096;
            dev.submit(OpType::kWrite, off, 4096, [&] {
                if (sim.now() < msToNs(300))
                    write_loop();
            });
        };
        if (with_writes) {
            for (int i = 0; i < 128; ++i)
                write_loop();
        }
        sim.runUntil(msToNs(300));
        return lat.percentile(99);
    };

    int64_t p99_clean = run(false);
    int64_t p99_writes = run(true);
    EXPECT_GT(p99_writes, p99_clean * 2);
}

TEST(SsdDevice, OptaneFlatLatency)
{
    sim::Simulator sim;
    SsdConfig cfg = optaneLike();
    SsdDevice dev(sim, cfg);
    SimTime read_done = -1;
    SimTime write_done = -1;
    dev.submit(OpType::kRead, 0, 4096, [&] { read_done = sim.now(); });
    sim.runAll();
    SimTime start = sim.now();
    dev.submit(OpType::kWrite, 4096, 4096,
               [&] { write_done = sim.now() - start; });
    sim.runAll();
    // Both around 12-20 us; read/write symmetric within 2x.
    EXPECT_LT(read_done, usToNs(25));
    EXPECT_LT(write_done, usToNs(25));
    EXPECT_GT(read_done, usToNs(5));
    EXPECT_GT(write_done, usToNs(5));
}

TEST(SsdDevice, OptaneNeedsNoGc)
{
    sim::Simulator sim;
    SsdConfig cfg = optaneLike();
    cfg.user_capacity = 64 * MiB;
    SsdDevice dev(sim, cfg, 3);
    Rng rng(3);
    uint64_t completed = 0;
    std::function<void()> loop = [&] {
        uint64_t off = rng.below(cfg.user_capacity / 4096) * 4096;
        dev.submit(OpType::kWrite, off, 4096, [&] {
            completed += 4096;
            if (sim.now() < msToNs(100))
                loop();
        });
    };
    for (int i = 0; i < 64; ++i)
        loop();
    sim.runUntil(msToNs(100));
    EXPECT_EQ(dev.blocksErased(), 0u);
    EXPECT_DOUBLE_EQ(dev.waf(), 1.0);
    EXPECT_GT(completed, 0u);
}

TEST(SsdDevice, ZeroSizeRejected)
{
    sim::Simulator sim;
    SsdDevice dev(sim, samsung980ProLike());
    EXPECT_THROW(dev.submit(OpType::kRead, 0, 0, [] {}), FatalError);
}

TEST(SsdDevice, OffsetsWrapCapacity)
{
    sim::Simulator sim;
    SsdConfig cfg = samsung980ProLike();
    SsdDevice dev(sim, cfg);
    bool done = false;
    dev.submit(OpType::kRead, cfg.user_capacity + 4096, 4096,
               [&] { done = true; });
    sim.runAll();
    EXPECT_TRUE(done);
}

TEST(SsdDevice, CountersTrackCompletions)
{
    sim::Simulator sim;
    SsdDevice dev(sim, samsung980ProLike());
    for (int i = 0; i < 10; ++i)
        dev.submit(OpType::kRead, static_cast<uint64_t>(i) * 8192, 8192,
                   [] {});
    sim.runAll();
    EXPECT_EQ(dev.readsCompleted(), 10u);
    EXPECT_EQ(dev.bytesRead(), 10u * 8192u);
    EXPECT_GT(dev.totalDieBusyNs(), 0);
}

TEST(SsdDevice, ReadsPreferredWithoutWritePressure)
{
    // A light writer next to readers: reads keep most of their solo
    // throughput because the controller prefers reads 3:1 when the
    // write cache is not under pressure.
    auto read_iops = [](bool with_light_writes) {
        sim::Simulator sim;
        SsdConfig cfg = samsung980ProLike();
        cfg.user_capacity = 512 * MiB;
        cfg.channels = 4;
        cfg.dies_per_channel = 4;
        SsdDevice dev(sim, cfg, 21);
        dev.precondition(1.0, 1.0);
        Rng rng(21);
        uint64_t reads = 0;
        std::function<void()> read_loop = [&] {
            uint64_t off = rng.below(cfg.user_capacity / 4096) * 4096;
            dev.submit(OpType::kRead, off, 4096, [&] {
                ++reads;
                if (sim.now() < msToNs(100))
                    read_loop();
            });
        };
        std::function<void()> write_loop = [&] {
            uint64_t off = rng.below(cfg.user_capacity / 4096) * 4096;
            dev.submit(OpType::kWrite, off, 4096, [&] {
                if (sim.now() < msToNs(100))
                    sim.after(usToNs(200), write_loop); // light load
            });
        };
        for (int i = 0; i < 64; ++i)
            read_loop();
        if (with_light_writes) {
            for (int i = 0; i < 4; ++i)
                write_loop();
        }
        sim.runUntil(msToNs(100));
        return reads;
    };
    uint64_t solo = read_iops(false);
    uint64_t with_writes = read_iops(true);
    EXPECT_GT(with_writes, solo / 2);
}

TEST(SsdDevice, WriteFloodCollapsesReads)
{
    // A saturating writer flips the controller into flush mode: reads
    // lose most of their throughput (the paper's mixed R/W collapse).
    sim::Simulator sim;
    SsdConfig cfg = samsung980ProLike();
    cfg.user_capacity = 512 * MiB;
    cfg.channels = 4;
    cfg.dies_per_channel = 4;
    SsdDevice dev(sim, cfg, 23);
    dev.precondition(1.0, 2.0);
    Rng rng(23);
    uint64_t reads = 0;
    uint64_t writes = 0;
    std::function<void()> read_loop = [&] {
        uint64_t off = rng.below(cfg.user_capacity / 4096) * 4096;
        dev.submit(OpType::kRead, off, 4096, [&] {
            ++reads;
            if (sim.now() < msToNs(400))
                read_loop();
        });
    };
    std::function<void()> write_loop = [&] {
        uint64_t off = rng.below(cfg.user_capacity / 4096) * 4096;
        dev.submit(OpType::kWrite, off, 4096, [&] {
            ++writes;
            if (sim.now() < msToNs(400))
                write_loop();
        });
    };
    for (int i = 0; i < 64; ++i)
        read_loop();
    for (int i = 0; i < 512; ++i)
        write_loop();
    sim.runUntil(msToNs(400));
    EXPECT_GT(writes, 0u);
    EXPECT_GT(reads, 0u); // not fully starved...
    // ...but far below the ~190k 4KiB reads this device serves solo.
    EXPECT_LT(reads, 60000u);
}

TEST(SsdDevice, UtilizationBetweenZeroAndOne)
{
    sim::Simulator sim;
    SsdDevice dev(sim, samsung980ProLike());
    for (int i = 0; i < 100; ++i)
        dev.submit(OpType::kRead, static_cast<uint64_t>(i) * 4096, 4096,
                   [] {});
    sim.runAll();
    double u = dev.dieUtilization();
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
}

} // namespace
} // namespace isol::ssd
