#include "ssd/ftl.hh"

#include <algorithm>

#include "common/logging.hh"

namespace isol::ssd
{

namespace
{
// Blocks held back per die so GC always has somewhere to move pages.
constexpr uint32_t kGcReservedBlocks = 1;
// Victim slots between a mapping-entry prefetch and its GC move.
constexpr uint32_t kMovePrefetch = 16;
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

    // Phase-change media (Optane-like) have no FTL: in-place updates, no
    // GC. Keep only the stripe-mapping fallback.
    if (cfg_.medium != MediumType::kFlash) {
        mapping_.clear();
        return;
    }

    if (blocks_per_die_ < kGcReservedBlocks + 4)
        fatal("Ftl: too few blocks per die; raise capacity or OP");
    if (blocks_per_die_ > 4096 || pages_per_block_ > 4096)
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
    spare_blocks_ = blocks_per_die_ - static_cast<uint32_t>(user_blocks);
    auto configured = static_cast<uint32_t>(
        cfg_.gc_bg_threshold * static_cast<double>(blocks_per_die_));
    // Start GC at the configured fraction, clamped to what the spare
    // space can actually sustain, and never below the hard reserve.
    gc_start_free_ = std::max<uint32_t>(
        kGcReservedBlocks + 1,
        std::min(configured, spare_blocks_ * 3 / 5));

    mapping_.assign(num_lpns_, kUnmappedEntry);
    p2l_.assign(size_t{num_dies_} * blocks_per_die_ * pages_per_block_,
                kUnmapped);
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
    uint32_t entry =
        mapping_.empty() ? kUnmappedEntry : mapping_[lpn];
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

PhysLoc
Ftl::allocSlot(uint32_t die, bool gc)
{
    Die &d = dies_[die];
    uint32_t &wp = gc ? d.gc_wp : d.host_wp;
    if (wp == kNoBlock || d.blocks[wp].used >= pages_per_block_) {
        size_t reserve = gc ? 0 : kGcReservedBlocks;
        if (d.free_blocks.size() <= reserve)
            return PhysLoc{die, kNoBlock, 0};
        wp = d.free_blocks.back();
        d.free_blocks.pop_back();
    }
    Block &blk = d.blocks[wp];
    uint32_t page = blk.used++;
    return PhysLoc{die, wp, page};
}

PhysLoc
Ftl::commitHostWrite(uint64_t lpn, uint32_t die)
{
    if (lpn >= num_lpns_)
        lpn %= num_lpns_;
    invalidate(lpn);
    PhysLoc loc = allocSlot(die, /*gc=*/false);
    if (loc.block == kNoBlock)
        panic("Ftl::commitHostWrite: caller ignored hostWriteStalled()");
    slots(die, loc.block)[loc.page] = static_cast<uint32_t>(lpn);
    ++dies_[die].blocks[loc.block].valid;
    mapping_[lpn] = pack(die, loc.block, loc.page);
    ++host_pages_written_;
    return loc;
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
Ftl::selectVictim(uint32_t die) const
{
    const Die &d = dies_[die];
    uint32_t best = kNoBlock;
    uint32_t best_valid = UINT32_MAX;
    for (uint32_t b = 0; b < blocks_per_die_; ++b) {
        if (b == d.host_wp || b == d.gc_wp)
            continue;
        const Block &blk = d.blocks[b];
        if (blk.bad)
            continue; // grown bad block: never erased or reused
        if (blk.used < pages_per_block_)
            continue; // not fully written (free or active)
        if (blk.valid < best_valid) {
            best_valid = blk.valid;
            best = b;
        }
    }
    // A fully-valid victim cannot be reclaimed at a profit; wait for
    // host overwrites to invalidate pages instead of burning die time.
    if (best != kNoBlock && best_valid >= pages_per_block_)
        return kNoBlock;
    return best;
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
    if (d.victim == kNoBlock) {
        // A bad-block remap ran instant GC while this move was in
        // flight on the die and reclaimed the victim already; the die
        // time was spent but there is nothing left to copy.
        return;
    }
    Block &victim = d.blocks[d.victim];
    uint32_t *src = slots(die, d.victim);
    // When the host overwrote the victim's remaining pages while this
    // move was in flight on the die, the copy is moot (the die time was
    // still spent — as on real hardware).
    const uint32_t todo = std::min<uint32_t>(pages, victim.valid);
    uint32_t moved = 0;
    uint32_t p = d.victim_scan;
    for (; moved < todo && p < pages_per_block_; ++p) {
        // The mapping entry each move rewrites is a cache miss; fetch the
        // one kMovePrefetch slots ahead so back-to-back moves overlap.
        if (p + kMovePrefetch < pages_per_block_) {
            uint32_t ahead = src[p + kMovePrefetch];
            if (ahead != kUnmapped)
                __builtin_prefetch(&mapping_[ahead], 1);
        }
        uint32_t lpn = src[p];
        if (lpn == kUnmapped)
            continue;
        PhysLoc loc = allocSlot(die, /*gc=*/true);
        if (loc.block == kNoBlock)
            panic("Ftl::gcCommitMove: GC reserve exhausted");
        src[p] = kUnmapped;
        slots(die, loc.block)[loc.page] = lpn;
        ++d.blocks[loc.block].valid;
        mapping_[lpn] = pack(die, loc.block, loc.page);
        ++moved;
    }
    victim.valid -= moved;
    gc_pages_moved_ += moved;
    d.victim_scan = p;
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
    if (!victimReadyForErase(die)) {
        // Either the victim was reclaimed by instant GC during a
        // bad-block remap while the erase was in flight, or instant GC
        // replaced it with a fresh, still-valid victim. Both ways the
        // scheduled erase is moot; the caller re-evaluates GC state.
        return;
    }
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

void
Ftl::instantWrite(uint64_t lpn)
{
    if (lpn >= num_lpns_)
        lpn %= num_lpns_;
    // Invalidate first so GC sees the dead page if it must run now.
    noteOverwrite(lpn);
    uint32_t die = takeHostWriteDie();
    if (hostWriteStalled(die))
        instantGc(die);
    commitHostWrite(lpn, die);
}

void
Ftl::instantGc(uint32_t die)
{
    // Reclaim until the background-GC start level is restored, breaking
    // out when a victim cycle makes no net progress (fully-valid victim).
    while (dies_[die].free_blocks.size() < gc_start_free_) {
        if (!gcHasMove(die)) {
            if (victimReadyForErase(die)) {
                gcCommitErase(die);
                continue;
            }
            break; // nothing reclaimable
        }
        const Block &victim = dies_[die].blocks[dies_[die].victim];
        if (victim.valid >= pages_per_block_)
            break; // zero net gain: moving costs what erasing frees
        gcCommitMove(die, victim.valid);
        gcCommitErase(die);
    }
}

bool
Ftl::growBadBlock(uint64_t lpn)
{
    if (cfg_.medium != MediumType::kFlash)
        return false;
    if (lpn >= num_lpns_)
        lpn %= num_lpns_;
    uint32_t entry = mapping_[lpn];
    if (entry == kUnmappedEntry)
        return false;
    PhysLoc loc = unpack(entry);
    Die &d = dies_[loc.die];
    // Active blocks stay in service: retiring a write point or the GC
    // victim mid-scan would corrupt the allocation state machine.
    if (loc.block == d.host_wp || loc.block == d.gc_wp ||
        loc.block == d.victim) {
        return false;
    }
    Block &blk = d.blocks[loc.block];
    if (blk.bad)
        return false;

    // Retire the block BEFORE draining it: remap writes below can kick
    // off GC on this die, and a not-yet-bad full block with dead pages
    // is a tempting victim — letting GC erase and reuse it mid-drain
    // would put survivor pages right back into the bad block.
    blk.bad = true;
    blk.used = pages_per_block_;
    ++bad_blocks_;

    // Remap every surviving page (including the triggering one) to a
    // fresh location; instantWrite invalidates the old slot first, so
    // the block drains to zero valid pages. The block is never selected
    // as a GC victim and never returns to the free list — the die's
    // spare capacity just shrank by one block.
    const uint32_t *blk_slots = slots(loc.die, loc.block);
    std::vector<uint32_t> survivors;
    survivors.reserve(blk.valid);
    for (uint32_t p = 0; p < blk.used; ++p) {
        if (blk_slots[p] != kUnmapped)
            survivors.push_back(blk_slots[p]);
    }
    for (uint32_t survivor : survivors)
        instantWrite(survivor);
    if (blk.valid != 0)
        panic("Ftl::growBadBlock: block not drained by remap");
    return true;
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

    // Every mapped LPN's slot must point back at it.
    uint64_t mapped = 0;
    for (uint64_t lpn = 0; lpn < num_lpns_; ++lpn) {
        uint32_t entry = mapping_[lpn];
        if (entry == kUnmappedEntry)
            continue;
        ++mapped;
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
            if (blk.bad)
                return fail(strCat("die ", die, " bad block ", b,
                                   " on the free list"));
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
    for (uint64_t lpn = 0; lpn < pages; ++lpn)
        instantWrite(lpn);
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
