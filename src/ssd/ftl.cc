#include "ssd/ftl.hh"

#include <algorithm>

#include "common/logging.hh"

namespace isol::ssd
{

namespace
{
// Moved pages between a mapping-entry prefetch and its rewrite.
constexpr uint32_t kMovePrefetch = 16;
// Victims one instant-GC burst ranks per scan of a die's blocks.
constexpr uint32_t kRankedVictims = 32;
// Random-overwrite lpns drawn ahead of their write; a power of two. Each
// draw's mapping entry is prefetched at once, its old P2L slot half-way.
constexpr uint64_t kDrawAhead = 16;
} // namespace

Ftl::Ftl(const SsdConfig &cfg)
    : cfg_(cfg),
      num_dies_(cfg.numDies()),
      blocks_per_die_(cfg.blocksPerDie()),
      pages_per_block_(cfg.pages_per_block),
      num_lpns_(cfg.numLogicalPages())
{
    if (num_dies_ == 0 || num_dies_ > 256)
        fatal("Ftl: die count must be in [1, 256]");

    // All clear: every read resolves to its stripe location until a
    // host write sets its chunk's bit (4 KiB for 8 GiB of 4 KiB pages).
    written_.assign(chunkWord(num_lpns_ + kChunkLpns * 64 - 1), 0);

    // Phase-change media (Optane-like) have no FTL: in-place updates, no
    // GC. Keep only the stripe-mapping fallback.
    if (cfg_.medium != MediumType::kFlash)
        return;

    if (blocks_per_die_ < kGcReservedBlocks + 4)
        fatal("Ftl: too few blocks per die; raise capacity or OP");
    if (blocks_per_die_ > 4096 || pages_per_block_ > kMaxPagesPerBlock)
        fatal("Ftl: geometry exceeds 32-bit mapping entry limits");
    if (num_lpns_ > kUnmapped)
        fatal("Ftl: logical pages exceed the 32-bit reverse map");

    // Spare blocks per die = physical minus the space needed for the
    // logical capacity; GC thresholds must stay below the spare fraction
    // or reclamation targets become unreachable.
    uint64_t user_pages_per_die =
        (num_lpns_ + num_dies_ - 1) / num_dies_;
    uint64_t user_blocks = (user_pages_per_die + pages_per_block_ - 1) /
                           pages_per_block_;
    if (user_blocks + kGcReservedBlocks + 2 > blocks_per_die_)
        fatal("Ftl: overprovisioning too small for the geometry");
    uint32_t spare_blocks =
        blocks_per_die_ - static_cast<uint32_t>(user_blocks);
    auto configured = static_cast<uint32_t>(
        cfg_.gc_bg_threshold * static_cast<double>(blocks_per_die_));
    // Start GC at the configured fraction, clamped to what the spare
    // space can actually sustain, and never below the hard reserve.
    gc_start_free_ = std::max<uint32_t>(
        kGcReservedBlocks + 1,
        std::min(configured, spare_blocks * 3 / 5));

    dies_.resize(num_dies_);
    for (auto &die : dies_) {
        die.blocks.resize(blocks_per_die_);
        die.free_blocks.reserve(blocks_per_die_);
        // Highest indices first so block 0 is the first write point.
        for (uint32_t b = blocks_per_die_; b-- > 0;)
            die.free_blocks.push_back(b);
    }
}

uint32_t
Ftl::pack(uint32_t die, uint32_t block, uint32_t page) const
{
    return (die << 24) | (block << 12) | page;
}

PhysLoc
Ftl::unpack(uint32_t entry) const
{
    return PhysLoc{entry >> 24, (entry >> 12) & 0xFFF, entry & 0xFFF};
}

PhysLoc
Ftl::lookupRead(uint64_t lpn) const
{
    if (lpn >= num_lpns_)
        lpn %= num_lpns_;
    // A clear chunk bit proves `lpn` unmapped without loading its entry.
    uint32_t entry = chunkWritten(lpn) ? mapping_[lpn] : kUnmappedEntry;
    if (entry == kUnmappedEntry) {
        // Never-written data: deterministic stripe placement.
        return PhysLoc{static_cast<uint32_t>(lpn % num_dies_), 0, 0};
    }
    return unpack(entry);
}

bool
Ftl::hostWriteStalled(uint32_t die) const
{
    const Die &d = dies_[die];
    // A stall happens when taking a fresh block would eat into the GC
    // reserve and the current write point is full.
    bool wp_full = d.host_wp == kNoBlock ||
                   d.blocks[d.host_wp].used >= pages_per_block_;
    return wp_full && d.free_blocks.size() <= kGcReservedBlocks;
}

void
Ftl::invalidate(uint64_t lpn)
{
    if (!chunkWritten(lpn))
        return; // no lpn in the chunk is mapped; the maps may not exist
    uint32_t entry = mapping_[lpn];
    if (entry == kUnmappedEntry)
        return;
    PhysLoc loc = unpack(entry);
    Block &blk = dies_[loc.die].blocks[loc.block];
    uint32_t &slot = slots(loc.die, loc.block)[loc.page];
    if (slot == lpn) {
        slot = kUnmapped;
        if (blk.valid == 0)
            panic("Ftl::invalidate: valid count underflow");
        --blk.valid;
    }
    mapping_[lpn] = kUnmappedEntry;
}

void
Ftl::allocateMaps()
{
    mapping_.assign(num_lpns_, kUnmappedEntry);
    p2l_.assign(size_t{num_dies_} * blocks_per_die_ * pages_per_block_,
                kUnmapped);
}

inline uint32_t
Ftl::openWritePoint(Die &d, uint32_t &wp, size_t reserve)
{
    if (wp == kNoBlock || d.blocks[wp].used >= pages_per_block_) {
        if (d.free_blocks.size() <= reserve)
            return kNoBlock;
        wp = d.free_blocks.back();
        d.free_blocks.pop_back();
    }
    return wp;
}

inline PhysLoc
Ftl::installHostPage(uint32_t lpn, uint32_t die)
{
    Die &d = dies_[die];
    uint32_t block = openWritePoint(d, d.host_wp, kGcReservedBlocks);
    if (block == kNoBlock)
        panic("Ftl: host write to a die stalled on the GC reserve");
    Block &blk = d.blocks[block];
    uint32_t page = blk.used++;
    ++blk.valid;
    slots(die, block)[page] = lpn;
    mapping_[lpn] = pack(die, block, page);
    written_[chunkWord(lpn)] |= chunkMask(lpn);
    ++host_pages_written_;
    return PhysLoc{die, block, page};
}

PhysLoc
Ftl::commitHostWrite(uint64_t lpn, uint32_t die)
{
    if (lpn >= num_lpns_)
        lpn %= num_lpns_;
    // First host write: allocate the maps now, so a drive that is only
    // ever read never pays for them.
    if (mapping_.empty())
        allocateMaps();
    invalidate(lpn);
    return installHostPage(static_cast<uint32_t>(lpn), die);
}

uint32_t
Ftl::takeHostWriteDie()
{
    uint32_t die = write_rr_;
    if (++write_rr_ == num_dies_)
        write_rr_ = 0;
    return die;
}

void
Ftl::noteOverwrite(uint64_t lpn)
{
    if (lpn >= num_lpns_)
        lpn %= num_lpns_;
    invalidate(lpn);
}

bool
Ftl::needsGc(uint32_t die) const
{
    if (cfg_.medium != MediumType::kFlash)
        return false;
    return dies_[die].free_blocks.size() < gc_start_free_;
}

double
Ftl::freeFraction(uint32_t die) const
{
    return static_cast<double>(dies_[die].free_blocks.size()) /
           static_cast<double>(blocks_per_die_);
}

uint32_t
Ftl::rankVictims(uint32_t die, uint32_t *out, uint32_t k) const
{
    const Die &d = dies_[die];
    // Insertion-rank (valid, block) keys in `out`, so ties go to the
    // lowest block index; the 12-bit block field is unpacked at the end.
    // Only keys below `limit` can enter: a fully valid block cannot be
    // reclaimed at a profit (GC waits for host overwrites instead), and
    // once `out` is full a key must beat its last entry.
    uint32_t limit = pages_per_block_ << 12;
    uint32_t n = 0;
    for (uint32_t b = 0; b < blocks_per_die_; ++b) {
        const Block &blk = d.blocks[b];
        const uint32_t key = (uint32_t{blk.valid} << 12) | b;
        // Blocks not fully written are free or active.
        if (blk.used < pages_per_block_ || key >= limit || b == d.host_wp ||
            b == d.gc_wp)
            continue;
        uint32_t i = n < k ? n++ : n - 1;
        for (; i > 0 && out[i - 1] > key; --i)
            out[i] = out[i - 1];
        out[i] = key;
        if (n == k)
            limit = out[k - 1];
    }
    for (uint32_t i = 0; i < n; ++i)
        out[i] &= 0xFFF;
    return n;
}

uint32_t
Ftl::selectVictim(uint32_t die) const
{
    uint32_t best;
    return rankVictims(die, &best, 1) == 1 ? best : kNoBlock;
}

bool
Ftl::gcHasMove(uint32_t die)
{
    Die &d = dies_[die];
    if (d.victim == kNoBlock) {
        d.victim = selectVictim(die);
        d.victim_scan = 0;
        if (d.victim == kNoBlock)
            return false;
    }
    return d.blocks[d.victim].valid > 0;
}

void
Ftl::gcCommitMove(uint32_t die, uint32_t pages)
{
    Die &d = dies_[die];
    // Only gcHasMove() schedules a move, and only gcCommitErase() clears
    // the victim; instant GC runs during preconditioning, before any
    // move is in flight.
    if (d.victim == kNoBlock)
        panic("Ftl::gcCommitMove: move committed with no GC victim");
    Block &victim = d.blocks[d.victim];
    uint32_t *src = slots(die, d.victim);
    // When the host overwrote the victim's remaining pages while this
    // move was in flight on the die, the copy is moot (the die time was
    // still spent — as on real hardware).
    const uint32_t todo = std::min<uint32_t>(pages, victim.valid);

    // Pass 1: compact the next `todo` live lpns into `run`, clearing
    // their slots. Every slot is stored; only a live one is kept.
    const uint32_t ppb = pages_per_block_; // not reloaded past the stores
    uint32_t *map = mapping_.data();
    uint32_t run[kMaxPagesPerBlock];
    uint32_t moved = 0;
    const uint32_t start = d.victim_scan;
    uint32_t p = start;
    for (; moved < todo && p < ppb; ++p) {
        uint32_t lpn = src[p];
        run[moved] = lpn;
        moved += lpn != kUnmapped;
        src[p] = kUnmapped;
    }
    victim.valid -= moved;
    gc_pages_moved_ += moved;
    d.victim_scan = p;

    // Pass 2: write the run to the GC write point, one piece per block
    // it fills. Each rewrite of `mapping_` is a cache miss; fetch the
    // entry kMovePrefetch pages ahead so consecutive moves overlap.
    for (uint32_t i = 0; i < moved;) {
        uint32_t block = openWritePoint(d, d.gc_wp, 0);
        if (block == kNoBlock)
            panic("Ftl::gcCommitMove: GC reserve exhausted");
        Block &dst = d.blocks[block];
        const uint32_t first = dst.used;
        const uint32_t n = std::min(moved - i, ppb - first);
        dst.used += n;
        dst.valid += n;
        uint32_t *dst_slots = slots(die, block) + first;
        const uint32_t entry = pack(die, block, first);
        for (uint32_t j = 0; j < n; ++j) {
            if (i + j + kMovePrefetch < moved)
                __builtin_prefetch(&map[run[i + j + kMovePrefetch]], 1);
            dst_slots[j] = run[i + j];
            map[run[i + j]] = entry + j;
        }
        i += n;
    }

    // Later calls move the victim's remaining pages, a few per call (the
    // timed GC moves one): fetch the entries of the slots this call's
    // cursor advance brought within kMovePrefetch slots.
    if (victim.valid > 0) {
        const uint32_t end = std::min(p + kMovePrefetch, ppb);
        for (uint32_t q = start + kMovePrefetch; q < end; ++q) {
            if (src[q] != kUnmapped)
                __builtin_prefetch(&map[src[q]], 1);
        }
    }
}

bool
Ftl::victimReadyForErase(uint32_t die) const
{
    const Die &d = dies_[die];
    return d.victim != kNoBlock && d.blocks[d.victim].valid == 0;
}

void
Ftl::gcCommitErase(uint32_t die)
{
    Die &d = dies_[die];
    // An erase is scheduled only for a drained victim, host writes only
    // drain it further, and instant GC runs during preconditioning,
    // before any erase is in flight.
    if (!victimReadyForErase(die))
        panic("Ftl::gcCommitErase: erase committed before the victim "
              "was drained");
    Block &victim = d.blocks[d.victim];
    uint32_t *victim_slots = slots(die, d.victim);
    std::fill(victim_slots, victim_slots + pages_per_block_, kUnmapped);
    victim.used = 0;
    victim.valid = 0;
    d.free_blocks.push_back(d.victim);
    d.victim = kNoBlock;
    d.victim_scan = 0;
    ++blocks_erased_;
}

inline void
Ftl::instantWrite(uint32_t lpn)
{
    uint32_t die = takeHostWriteDie();
    // Invalidate before any instant GC, so GC sees the dead page.
    invalidate(lpn);
    if (hostWriteStalled(die))
        instantGc(die);
    installHostPage(lpn, die);
}

void
Ftl::instantGc(uint32_t die)
{
    // Reclaim until the background-GC start level is restored. A victim
    // always holds a dead page (fully valid blocks never qualify), so
    // every cycle frees net space; stop when none qualifies.
    //
    // One scan ranks the burst's victims in selectVictim() order. Only
    // GC runs until the burst ends, so the ranked blocks' valid counts
    // hold still and the ranking stays exact, except that a GC write
    // point that fills up becomes a candidate: when it qualifies, rank
    // again. A fully used ranking was cut at kRankedVictims; rank again
    // when it runs out, too.
    Die &d = dies_[die];
    uint32_t ranked[kRankedVictims];
    uint32_t n = 0;
    uint32_t next = 0;
    bool stale = true;
    while (d.free_blocks.size() < gc_start_free_) {
        if (d.victim == kNoBlock) {
            if (stale || (next == n && n == kRankedVictims)) {
                n = rankVictims(die, ranked, kRankedVictims);
                next = 0;
                stale = false;
            }
            if (next == n)
                break; // nothing reclaimable
            d.victim = ranked[next++];
            d.victim_scan = 0;
        }
        const uint32_t gc_wp = d.gc_wp;
        gcCommitMove(die, d.blocks[d.victim].valid);
        gcCommitErase(die);
        if (d.gc_wp != gc_wp && gc_wp != kNoBlock &&
            d.blocks[gc_wp].valid < pages_per_block_)
            stale = true;
    }
}

bool
Ftl::checkInvariants(std::string *error) const
{
    auto fail = [&](const std::string &msg) {
        if (error != nullptr)
            *error = msg;
        return false;
    };
    if (cfg_.medium != MediumType::kFlash)
        return true;

    if (mapping_.empty()) {
        // No host write yet: nothing may be written or marked.
        for (uint64_t lpn = 0; lpn < num_lpns_; lpn += kChunkLpns) {
            if (chunkWritten(lpn))
                return fail(strCat("chunk of lpn ", lpn,
                                   " marked written before any write"));
        }
        for (uint32_t die = 0; die < num_dies_; ++die) {
            const Die &d = dies_[die];
            for (uint32_t b = 0; b < blocks_per_die_; ++b) {
                if (d.blocks[b].used != 0 || d.blocks[b].valid != 0)
                    return fail(strCat("die ", die, " block ", b,
                                       " written with no maps"));
            }
            if (d.free_blocks.size() != blocks_per_die_)
                return fail(strCat("die ", die, " free list short"));
        }
        return true;
    }

    // Every mapped LPN's slot must point back at it, and its chunk must
    // be marked written (a clear bit would hide it from reads).
    uint64_t mapped = 0;
    for (uint64_t lpn = 0; lpn < num_lpns_; ++lpn) {
        uint32_t entry = mapping_[lpn];
        if (entry == kUnmappedEntry)
            continue;
        ++mapped;
        if (!chunkWritten(lpn))
            return fail(strCat("lpn ", lpn, " mapped in a chunk marked "
                               "unwritten"));
        PhysLoc loc = unpack(entry);
        if (loc.die >= num_dies_ || loc.block >= blocks_per_die_ ||
            loc.page >= pages_per_block_) {
            return fail(strCat("lpn ", lpn, " maps out of range"));
        }
        const Block &blk = dies_[loc.die].blocks[loc.block];
        if (slots(loc.die, loc.block)[loc.page] != lpn)
            return fail(strCat("lpn ", lpn, " slot mismatch"));
        if (loc.page >= blk.used)
            return fail(strCat("lpn ", lpn, " points at unwritten slot"));
    }

    // Per-block valid counts must equal the live slots; free blocks must
    // be empty; totals must add up.
    uint64_t valid_total = 0;
    for (uint32_t die = 0; die < num_dies_; ++die) {
        const Die &d = dies_[die];
        for (uint32_t b = 0; b < blocks_per_die_; ++b) {
            const Block &blk = d.blocks[b];
            const uint32_t *blk_slots = slots(die, b);
            uint32_t live = 0;
            for (uint32_t p = 0; p < blk.used; ++p)
                live += blk_slots[p] != kUnmapped;
            for (uint32_t p = blk.used; p < pages_per_block_; ++p) {
                if (blk_slots[p] != kUnmapped)
                    return fail(strCat("die ", die, " block ", b,
                                       " live page beyond used"));
            }
            if (live != blk.valid)
                return fail(strCat("die ", die, " block ", b,
                                   " valid count mismatch"));
            valid_total += blk.valid;
        }
        for (uint32_t b : d.free_blocks) {
            const Block &blk = d.blocks[b];
            if (blk.used != 0 || blk.valid != 0)
                return fail(strCat("die ", die, " free block ", b,
                                   " not empty"));
        }
        if (d.free_blocks.size() > blocks_per_die_)
            return fail(strCat("die ", die, " free list too large"));
    }
    if (valid_total != mapped)
        return fail(strCat("valid total ", valid_total,
                           " != mapped lpns ", mapped));
    return true;
}

void
Ftl::preconditionSequentialFill(double fill_fraction)
{
    if (cfg_.medium != MediumType::kFlash)
        return;
    fill_fraction = std::clamp(fill_fraction, 0.0, 1.0);
    uint64_t pages = static_cast<uint64_t>(
        fill_fraction * static_cast<double>(num_lpns_));
    if (pages > 0 && mapping_.empty())
        allocateMaps();
    for (uint64_t lpn = 0; lpn < pages; ++lpn)
        instantWrite(static_cast<uint32_t>(lpn));
    filled_lpns_ = std::max(filled_lpns_, pages);
}

void
Ftl::preconditionRandomOverwrite(uint64_t count, Rng &rng)
{
    if (cfg_.medium != MediumType::kFlash || filled_lpns_ == 0)
        return;
    // Draw up to kDrawAhead lpns ahead of the one being written, in draw
    // order and never past `count`: ring[i % kDrawAhead] holds draw i.
    uint32_t ring[kDrawAhead];
    uint64_t drawn = 0;
    auto draw = [&] {
        auto lpn = static_cast<uint32_t>(rng.below(filled_lpns_));
        __builtin_prefetch(&mapping_[lpn], 1);
        ring[drawn++ % kDrawAhead] = lpn;
    };
    while (drawn < std::min(count, kDrawAhead))
        draw();
    for (uint64_t i = 0; i < count; ++i) {
        uint32_t lpn = ring[i % kDrawAhead];
        if (drawn < count)
            draw(); // reuses slot i % kDrawAhead
        if (i + kDrawAhead / 2 < drawn) {
            // Half-way: the mapping entry is cached by now, so fetch the
            // P2L slot the write will invalidate.
            uint32_t entry = mapping_[ring[(i + kDrawAhead / 2) % kDrawAhead]];
            if (entry != kUnmappedEntry) {
                PhysLoc old = unpack(entry);
                __builtin_prefetch(&slots(old.die, old.block)[old.page], 1);
            }
        }
        instantWrite(lpn);
    }
}

} // namespace isol::ssd
