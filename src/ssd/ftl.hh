/**
 * @file
 * Page-mapped flash translation layer with greedy garbage collection.
 *
 * The FTL owns the logical-to-physical mapping, per-block validity
 * bookkeeping, write-point allocation (separate host and GC write points
 * per die, as in real controllers), victim selection, and the
 * preconditioning passes the paper performs before write experiments.
 *
 * The FTL is purely bookkeeping — it consumes no simulated time. The
 * SsdDevice drives it and charges die/channel time for each operation.
 *
 * Layout: the forward map holds one packed 32-bit (die, block, page)
 * entry per lpn; the reverse (P2L) map is one flat array of 32-bit lpns,
 * one per physical page slot, indexed block-major so a block's slots are
 * contiguous. Per-block metadata is just {used, valid, bad}.
 */

#ifndef ISOL_SSD_FTL_HH
#define ISOL_SSD_FTL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "ssd/config.hh"

namespace isol::ssd
{

/** Physical location of a logical page. */
struct PhysLoc
{
    uint32_t die;
    uint32_t block;
    uint32_t page;
};

/**
 * Flash translation layer state machine.
 */
class Ftl
{
  public:
    explicit Ftl(const SsdConfig &cfg);

    /** Number of dies managed. */
    uint32_t numDies() const { return num_dies_; }

    /** Blocks per die. */
    uint32_t blocksPerDie() const { return blocks_per_die_; }

    /**
     * Physical location serving a read of `lpn`. Unwritten pages resolve
     * to a deterministic stripe location (reading never-written data is
     * legal and serviced like any other read).
     */
    PhysLoc lookupRead(uint64_t lpn) const;

    /** True when `lpn` has been written and not invalidated since. */
    bool
    mapped(uint64_t lpn) const
    {
        return !mapping_.empty() &&
               mapping_[lpn % num_lpns_] != kUnmappedEntry;
    }

    /**
     * Die that the next host write will go to (global round-robin write
     * pointer). Does not advance the pointer.
     */
    uint32_t nextHostWriteDie() const { return write_rr_; }

    /**
     * True when `die` cannot currently accept a host write because free
     * space is at/below the foreground-GC threshold (host writes must
     * stall until GC frees a block).
     */
    bool hostWriteStalled(uint32_t die) const;

    /**
     * Record that `lpn` is about to be overwritten (the write was admitted
     * to the device cache): the old mapping is invalidated immediately so
     * GC can reclaim the dead page before the program lands — as on a real
     * controller, where cached data supersedes the flash copy.
     */
    void noteOverwrite(uint64_t lpn);

    /**
     * Commit one host page write of `lpn` to `die`: allocates a slot on
     * the die's host write point, invalidates any previous mapping and
     * installs the new one. Caller must ensure !hostWriteStalled(die).
     * Returns the new location.
     */
    PhysLoc commitHostWrite(uint64_t lpn, uint32_t die);

    /** Advance the round-robin host write pointer and return prior value. */
    uint32_t takeHostWriteDie();

    /** True when background GC should run on `die`. */
    bool needsGc(uint32_t die) const;

    /**
     * True when `die` has a move to perform for its current or a newly
     * selected victim. Selects a victim lazily. When this returns false
     * but a drained victim awaits erase, use victimReadyForErase().
     */
    bool gcHasMove(uint32_t die);

    /**
     * Bookkeep up to `pages` GC valid-page moves on `die` (mapping
     * updated), in the victim's slot order. Moves fewer when the victim
     * has fewer valid pages left.
     */
    void gcCommitMove(uint32_t die, uint32_t pages = 1);

    /** True when the die's victim has no valid pages left (erase it). */
    bool victimReadyForErase(uint32_t die) const;

    /** Bookkeep the erase of the die's victim; frees the block. */
    void gcCommitErase(uint32_t die);

    /** Free-space fraction (free blocks / total blocks) on `die`. */
    double freeFraction(uint32_t die) const;

    /** Free blocks below which background GC starts (spare-aware). */
    uint32_t gcStartFreeBlocks() const { return gc_start_free_; }

    /** Spare (overprovisioned) blocks per die. */
    uint32_t spareBlocksPerDie() const { return spare_blocks_; }

    /**
     * Instant preconditioning: sequentially write `fill_fraction` of the
     * logical space (no simulated time). The written prefix becomes the
     * range that preconditionRandomOverwrite() draws from.
     */
    void preconditionSequentialFill(double fill_fraction);

    /**
     * Instant preconditioning: perform `count` random-page overwrites of
     * the sequentially filled range, running GC instantly whenever
     * allocation would stall. Produces the steady-state block-validity
     * distribution the paper creates with its random-overwrite pass.
     * Draws exactly `count` values from `rng`, and leaves the same state
     * as `count` single-page calls would. Does nothing before a fill.
     */
    void preconditionRandomOverwrite(uint64_t count, Rng &rng);

    /**
     * Declare the block holding `lpn` a grown bad block: its surviving
     * valid pages are remapped to fresh locations (instant bookkeeping;
     * the device charges die time separately) and the block is retired
     * from circulation forever, shrinking effective spare capacity.
     *
     * Returns false without side effects when the block cannot be
     * retired right now (unmapped lpn, active write point, current GC
     * victim, or non-flash media).
     */
    bool growBadBlock(uint64_t lpn);

    /** Grown bad blocks retired so far (whole device). */
    uint64_t badBlocks() const { return bad_blocks_; }

    /**
     * Verify internal consistency (testing): every mapped LPN points at
     * a slot that points back; per-block valid counts match the mapping;
     * free-list blocks are empty; block counts add up. Returns true when
     * consistent; otherwise fills `error` with the first violation.
     */
    bool checkInvariants(std::string *error = nullptr) const;

    // --- Statistics ---

    /** Zero the write/GC counters (called after preconditioning). */
    void
    resetStats()
    {
        host_pages_written_ = 0;
        gc_pages_moved_ = 0;
        blocks_erased_ = 0;
    }

    uint64_t hostPagesWritten() const { return host_pages_written_; }
    uint64_t gcPagesMoved() const { return gc_pages_moved_; }
    uint64_t blocksErased() const { return blocks_erased_; }

    /** Write amplification factor (total programs / host programs). */
    double
    waf() const
    {
        if (host_pages_written_ == 0)
            return 1.0;
        return static_cast<double>(host_pages_written_ + gc_pages_moved_) /
               static_cast<double>(host_pages_written_);
    }

  private:
    static constexpr uint32_t kNoBlock = UINT32_MAX;
    static constexpr uint32_t kUnmapped = UINT32_MAX; //!< dead P2L slot

    struct Block
    {
        uint16_t used = 0; //!< slots written
        uint16_t valid = 0; //!< slots still mapped
        bool bad = false; //!< grown bad block, out of circulation
    };

    struct Die
    {
        std::vector<Block> blocks;
        std::vector<uint32_t> free_blocks;
        uint32_t host_wp = kNoBlock; //!< active host write block
        uint32_t gc_wp = kNoBlock; //!< active GC write block
        uint32_t victim = kNoBlock; //!< current GC victim
        uint32_t victim_scan = 0; //!< scan cursor into the victim
    };

    /** Pack/unpack mapping entries (die, block, page) into 32 bits. */
    uint32_t pack(uint32_t die, uint32_t block, uint32_t page) const;
    PhysLoc unpack(uint32_t entry) const;

    /** First P2L slot of `block` on `die` (lpn per page, or kUnmapped). */
    uint32_t *
    slots(uint32_t die, uint32_t block)
    {
        return p2l_.data() +
               (size_t{die} * blocks_per_die_ + block) * pages_per_block_;
    }
    const uint32_t *
    slots(uint32_t die, uint32_t block) const
    {
        return p2l_.data() +
               (size_t{die} * blocks_per_die_ + block) * pages_per_block_;
    }

    /** Invalidate the mapping entry of `lpn` if present. */
    void invalidate(uint64_t lpn);

    /**
     * Allocate a page slot on a write point. `gc` selects the GC write
     * point (which may dip into the reserved blocks). Returns kNoBlock
     * block when no space is available.
     */
    PhysLoc allocSlot(uint32_t die, bool gc);

    /** Pick the fullest-dead candidate victim on `die` (greedy). */
    uint32_t selectVictim(uint32_t die) const;

    /** Run GC to completion (bookkeeping only) until above fg threshold. */
    void instantGc(uint32_t die);

    /** Write one page instantly (preconditioning path). */
    void instantWrite(uint64_t lpn);

    const SsdConfig cfg_;
    uint32_t num_dies_;
    uint32_t blocks_per_die_;
    uint32_t pages_per_block_;
    uint64_t num_lpns_;
    uint64_t filled_lpns_ = 0; //!< prefix written by the sequential fill
    uint32_t spare_blocks_ = 0;
    uint32_t gc_start_free_ = 2;

    std::vector<uint32_t> mapping_; //!< lpn -> packed loc (kUnmappedEntry)
    static constexpr uint32_t kUnmappedEntry = UINT32_MAX;
    std::vector<uint32_t> p2l_; //!< slot -> lpn (kUnmapped), see slots()
    std::vector<Die> dies_;

    uint32_t write_rr_ = 0;

    uint64_t host_pages_written_ = 0;
    uint64_t gc_pages_moved_ = 0;
    uint64_t blocks_erased_ = 0;
    uint64_t bad_blocks_ = 0;
};

} // namespace isol::ssd

#endif // ISOL_SSD_FTL_HH
