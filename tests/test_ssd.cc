/**
 * @file
 * Unit and integration tests for the SSD model: FTL bookkeeping/GC and
 * end-to-end device behaviour (latency, saturation, write cache, GC
 * interference, Optane preset).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/strings.hh"
#include "common/types.hh"
#include "sim/simulator.hh"
#include "ssd/config.hh"
#include "ssd/device.hh"
#include "ssd/ftl.hh"
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

TEST(Ftl, FreshDriveHoldsNoMapsUntilTheFirstWrite)
{
    SsdConfig cfg = tinyFlash();
    Ftl ftl(cfg);
    EXPECT_EQ(ftl.tableBytes(), 0u);
    // Reads, mapped() probes and overwrite notes of never-written lpns
    // resolve from the summary alone.
    for (uint64_t lpn = 0; lpn < cfg.numLogicalPages(); ++lpn) {
        PhysLoc loc = ftl.lookupRead(lpn);
        ASSERT_EQ(loc.die, lpn % ftl.numDies()) << "lpn " << lpn;
        ASSERT_EQ(loc.block, 0u);
        ASSERT_EQ(loc.page, 0u);
        ASSERT_FALSE(ftl.mapped(lpn));
    }
    ftl.noteOverwrite(5);
    EXPECT_EQ(ftl.tableBytes(), 0u);
    std::string error;
    EXPECT_TRUE(ftl.checkInvariants(&error)) << error;

    ftl.commitHostWrite(5, ftl.takeHostWriteDie());
    const uint64_t slots = uint64_t{ftl.numDies()} * ftl.blocksPerDie() *
                           cfg.pages_per_block;
    EXPECT_EQ(ftl.tableBytes(),
              (cfg.numLogicalPages() + slots) * sizeof(uint32_t));
    EXPECT_TRUE(ftl.mapped(5));
    EXPECT_FALSE(ftl.mapped(4)); // unwritten neighbour in a written chunk
    EXPECT_TRUE(ftl.checkInvariants(&error)) << error;
}

TEST(Ftl, OptaneHoldsNoMaps)
{
    Ftl ftl(optaneLike());
    EXPECT_EQ(ftl.tableBytes(), 0u);
    EXPECT_FALSE(ftl.mapped(3));
    EXPECT_EQ(ftl.lookupRead(3).die, 3 % ftl.numDies());
    std::string error;
    EXPECT_TRUE(ftl.checkInvariants(&error)) << error;
}

TEST(Ftl, HostWritesStallOnTheGcReserveUntilAnErase)
{
    // One die, so every host write lands on the die under test.
    SsdConfig cfg = tinyFlash();
    cfg.channels = 1;
    cfg.dies_per_channel = 1;
    cfg.user_capacity = 1 * MiB;
    cfg.overprovision = 1.0;
    Ftl ftl(cfg);
    const uint64_t ppb = cfg.pages_per_block;
    const uint64_t lpns = cfg.numLogicalPages();
    const uint32_t blocks = ftl.blocksPerDie();
    auto free_blocks = [&] {
        return static_cast<uint32_t>(ftl.freeFraction(0) * blocks + 0.5);
    };

    // Cycle over the logical space, so by the time the die runs out of
    // free blocks its oldest block holds only stale pages.
    uint64_t lpn = 0;
    while (!ftl.hostWriteStalled(0)) {
        ASSERT_LT(ftl.hostPagesWritten(), blocks * ppb);
        ftl.commitHostWrite(lpn++ % lpns, 0);
    }
    // Every block but the reserve is written full, write point included:
    // the stall comes neither earlier nor later.
    EXPECT_EQ(ftl.hostPagesWritten(),
              (blocks - Ftl::kGcReservedBlocks) * ppb);
    EXPECT_EQ(free_blocks(), Ftl::kGcReservedBlocks);

    // The stale block needs no move; erasing it ends the stall.
    EXPECT_FALSE(ftl.gcHasMove(0));
    ASSERT_TRUE(ftl.victimReadyForErase(0));
    ftl.gcCommitErase(0);
    EXPECT_FALSE(ftl.hostWriteStalled(0));
    EXPECT_EQ(free_blocks(), Ftl::kGcReservedBlocks + 1);
    ftl.commitHostWrite(lpn % lpns, 0);
    std::string error;
    EXPECT_TRUE(ftl.checkInvariants(&error)) << error;
}

// What the FTL must answer for one lpn, learnt from the outside: whether
// it is mapped and, until GC may have moved it, where.
struct RefEntry
{
    bool mapped = false;
    bool moved = false; //!< GC ran on its die since it was written
    PhysLoc loc{};
};

// Also requires no two mapped lpns to share a physical page, which is
// all the reference can say about where GC put an lpn.
void
expectMatchesReference(const Ftl &ftl, const std::vector<RefEntry> &ref,
                       uint32_t pages_per_block)
{
    std::vector<bool> taken(size_t{ftl.numDies()} * ftl.blocksPerDie() *
                            pages_per_block);
    for (uint64_t lpn = 0; lpn < ref.size(); ++lpn) {
        const RefEntry &want = ref[lpn];
        PhysLoc got = ftl.lookupRead(lpn);
        ASSERT_EQ(ftl.mapped(lpn), want.mapped) << "lpn " << lpn;
        if (!want.mapped) {
            ASSERT_EQ(got.die, lpn % ftl.numDies()) << "lpn " << lpn;
            ASSERT_EQ(got.block, 0u) << "lpn " << lpn;
            ASSERT_EQ(got.page, 0u) << "lpn " << lpn;
            continue;
        }
        size_t slot =
            (size_t{got.die} * ftl.blocksPerDie() + got.block) *
                pages_per_block + got.page;
        ASSERT_FALSE(taken[slot]) << "lpn " << lpn << " shares a page";
        taken[slot] = true;
        ASSERT_EQ(got.die, want.loc.die) << "lpn " << lpn; // GC stays
        if (!want.moved) {
            ASSERT_EQ(got.block, want.loc.block) << "lpn " << lpn;
            ASSERT_EQ(got.page, want.loc.page) << "lpn " << lpn;
        }
    }
}

TEST(Ftl, SummaryGatedReadsMatchAReferenceMap)
{
    // A seeded mix of host writes, overwrite notes and GC steps over the
    // lower half of a tiny drive: overwrite notes leave unmapped lpns in
    // written chunks, and the upper half stays unwritten.
    SsdConfig cfg = tinyFlash();
    const uint64_t num_lpns = cfg.numLogicalPages();
    Ftl ftl(cfg);
    std::vector<RefEntry> ref(num_lpns);
    Rng rng(23);

    auto gcStep = [&](uint32_t die, uint32_t pages) {
        if (ftl.gcHasMove(die)) {
            ftl.gcCommitMove(die, pages);
            for (RefEntry &e : ref)
                e.moved |= e.mapped && e.loc.die == die;
            return true;
        }
        if (ftl.victimReadyForErase(die)) {
            ftl.gcCommitErase(die);
            return true;
        }
        return false;
    };

    for (int op = 0; op < 60000; ++op) {
        uint64_t lpn = rng.below(num_lpns / 2);
        uint64_t kind = rng.below(16);
        if (kind == 0) {
            ftl.noteOverwrite(lpn);
            ref[lpn] = RefEntry{};
        } else if (kind == 1) {
            auto die = static_cast<uint32_t>(rng.below(ftl.numDies()));
            if (ftl.needsGc(die))
                gcStep(die, 1 + static_cast<uint32_t>(rng.below(4)));
        } else {
            uint32_t die = ftl.takeHostWriteDie();
            while (ftl.hostWriteStalled(die))
                ASSERT_TRUE(gcStep(die, UINT32_MAX)) << "GC stuck";
            PhysLoc loc = ftl.commitHostWrite(lpn, die);
            ref[lpn] = RefEntry{true, false, loc};
        }
        if (op % 15000 == 14999)
            expectMatchesReference(ftl, ref, cfg.pages_per_block);
    }

    // The mix reached every case the summary must tell apart: lpns at
    // their written place, lpns GC moved, and unmapped lpns in chunks
    // (64 lpns per summary bit) that hold a mapped one.
    uint64_t placed = 0;
    uint64_t moved = 0;
    uint64_t neighbours = 0;
    for (uint64_t chunk = 0; chunk < num_lpns / 64; ++chunk) {
        uint64_t live = 0;
        for (uint64_t lpn = chunk * 64; lpn < chunk * 64 + 64; ++lpn) {
            live += ref[lpn].mapped;
            placed += ref[lpn].mapped && !ref[lpn].moved;
            moved += ref[lpn].moved;
        }
        if (live > 0)
            neighbours += 64 - live;
    }
    EXPECT_GT(ftl.gcPagesMoved(), 0u);
    EXPECT_GT(placed, 0u);
    EXPECT_GT(moved, 0u);
    EXPECT_GT(neighbours, 0u);
    std::string error;
    EXPECT_TRUE(ftl.checkInvariants(&error)) << error;
}

TEST(Ftl, InvariantsCatchAClearedSummaryBit)
{
    Ftl ftl(tinyFlash());
    for (uint64_t lpn = 0; lpn < 300; lpn += 3)
        ftl.commitHostWrite(lpn, ftl.takeHostWriteDie());
    std::string error;
    ASSERT_TRUE(ftl.checkInvariants(&error)) << error;
    ftl.debugClearChunkBit(130);
    EXPECT_FALSE(ftl.checkInvariants(&error));
    EXPECT_NE(error.find("marked unwritten"), std::string::npos) << error;
    // The lost bit hides lpn 129's mapping from reads.
    EXPECT_FALSE(ftl.mapped(129));
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
// per-die free space. It omits the write points and the GC victim, so
// equal hashes do not prove equal state: a test that must also pin those
// drives both sides with further writes and compares again.
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

// Instant preconditioning replayed one page at a time through the
// public single-page API, as the timed device path drives it: the same
// fill, the same draws, and GC run page by page whenever a die stalls.
void
replayPrecondition(Ftl &ftl, uint64_t num_lpns, uint64_t overwrites,
                   Rng &rng)
{
    auto write = [&](uint64_t lpn) {
        uint32_t die = ftl.takeHostWriteDie();
        ftl.noteOverwrite(lpn);
        if (ftl.hostWriteStalled(die)) {
            while (ftl.needsGc(die)) {
                if (!ftl.gcHasMove(die) && !ftl.victimReadyForErase(die))
                    break;
                while (ftl.gcHasMove(die))
                    ftl.gcCommitMove(die);
                ftl.gcCommitErase(die);
            }
        }
        ftl.commitHostWrite(lpn, die);
    };
    for (uint64_t lpn = 0; lpn < num_lpns; ++lpn)
        write(lpn);
    for (uint64_t i = 0; i < overwrites; ++i)
        write(rng.below(num_lpns));
}

// Further single-page host writes with timed-style GC (one page per
// step), identical on both sides: a write point or victim that differs
// shows up as a different placement.
void
driveSinglePageWrites(Ftl &ftl, uint64_t num_lpns, int writes)
{
    Rng rng(77);
    auto gcStep = [&](uint32_t die) {
        if (ftl.gcHasMove(die))
            ftl.gcCommitMove(die);
        else if (ftl.victimReadyForErase(die))
            ftl.gcCommitErase(die);
        else
            return false;
        return true;
    };
    for (int i = 0; i < writes; ++i) {
        uint64_t lpn = rng.below(num_lpns);
        ftl.noteOverwrite(lpn);
        uint32_t die = ftl.takeHostWriteDie();
        while (ftl.hostWriteStalled(die))
            ASSERT_TRUE(gcStep(die)) << "GC stuck";
        ftl.commitHostWrite(lpn, die);
        if (i % 3 == 0 && ftl.needsGc(die))
            gcStep(die);
    }
}

TEST(Ftl, PreconditionMatchesPageByPageReplay)
{
    struct Geometry
    {
        uint64_t capacity;
        uint32_t channels;
        uint32_t dies_per_channel;
        uint32_t pages_per_block;
        double overprovision;
    };
    // The FtlInvariantTest geometries (test_properties.cc), then the
    // preset's die at 64 pages/block and OP 0.09, 16 pages/block (many
    // block boundaries inside one victim's move run) and the largest
    // block a mapping entry addresses (move runs of up to 4095 pages).
    const Geometry geometries[] = {
        {32 * MiB, 2, 2, 32, 0.30},   {32 * MiB, 4, 2, 64, 0.25},
        {32 * MiB, 2, 4, 16, 0.40},   {32 * MiB, 8, 1, 32, 0.30},
        {32 * MiB, 1, 4, 64, 0.35},   {256 * MiB, 2, 1, 64, 0.09},
        {64 * MiB, 2, 2, 16, 0.28},   {512 * MiB, 1, 1, 4096, 0.28},
    };
    for (const Geometry &g : geometries) {
        SCOPED_TRACE(strCat(g.channels, "x", g.dies_per_channel, " dies, ",
                            g.pages_per_block, " pages/block, OP ",
                            g.overprovision));
        SsdConfig cfg = samsung980ProLike();
        cfg.user_capacity = g.capacity;
        cfg.channels = g.channels;
        cfg.dies_per_channel = g.dies_per_channel;
        cfg.pages_per_block = g.pages_per_block;
        cfg.overprovision = g.overprovision;
        const uint64_t n = cfg.numLogicalPages();

        Ftl fast(cfg);
        Rng fast_rng(31);
        fast.preconditionSequentialFill(1.0);
        fast.preconditionRandomOverwrite(n * 2, fast_rng);

        Ftl ref(cfg);
        Rng ref_rng(31);
        replayPrecondition(ref, n, n * 2, ref_rng);

        ASSERT_GT(fast.blocksErased(), 0u);
        EXPECT_EQ(fast.hostPagesWritten(), ref.hostPagesWritten());
        EXPECT_EQ(fast.gcPagesMoved(), ref.gcPagesMoved());
        EXPECT_EQ(fast.blocksErased(), ref.blocksErased());
        EXPECT_EQ(stateHash(fast, n), stateHash(ref, n));
        EXPECT_EQ(fast_rng.next(), ref_rng.next());

        driveSinglePageWrites(fast, n, 1000);
        driveSinglePageWrites(ref, n, 1000);
        EXPECT_EQ(fast.gcPagesMoved(), ref.gcPagesMoved());
        EXPECT_EQ(fast.blocksErased(), ref.blocksErased());
        EXPECT_EQ(stateHash(fast, n), stateHash(ref, n));
        std::string error;
        EXPECT_TRUE(fast.checkInvariants(&error)) << error;
    }
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
