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
 * contiguous. Per-block metadata is just {used, valid}. Both maps are
 * allocated at the first host write, and a written-chunk summary (one
 * bit per kChunkLpns lpns, set at each host write and never cleared)
 * lets reads of never-written chunks skip the forward map: on a fresh
 * drive a read touches no per-lpn state at all.
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
    /** Free blocks held back per die so GC always has somewhere to move
     *  pages. Host writes to a die stall (foreground GC) when its write
     *  point is full and no more than this many blocks are free. */
    static constexpr uint32_t kGcReservedBlocks = 1;

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
        lpn %= num_lpns_;
        return chunkWritten(lpn) && mapping_[lpn] != kUnmappedEntry;
    }

    /**
     * Bytes held by the forward and reverse maps: 0 until the first host
     * write (the written-chunk summary is not counted).
     */
    size_t
    tableBytes() const
    {
        return (mapping_.capacity() + p2l_.capacity()) * sizeof(uint32_t);
    }

    /**
     * True when `die` cannot currently accept a host write: its write
     * point is full and taking a fresh block would eat into the
     * kGcReservedBlocks reserve. Host writes stall until GC frees a block.
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
     * Commit one host page write of `lpn` to `die`: invalidates any
     * previous mapping, then installs the page on the die's host write
     * point through installHostPage(), the body instant preconditioning
     * shares. Caller must ensure !hostWriteStalled(die). Returns the new
     * location.
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
     * has fewer valid pages left. Two passes: the first compacts the
     * live lpns from the scan cursor into a stack run (one slot per
     * page, branch-free), the second writes the run to the GC write
     * point in whole-block pieces, prefetching the mapping entries it
     * rewrites kMovePrefetch ahead along the run. The timed GC moves one
     * page per call, instant GC a whole victim per call.
     */
    void gcCommitMove(uint32_t die, uint32_t pages = 1);

    /** True when the die's victim has no valid pages left (erase it). */
    bool victimReadyForErase(uint32_t die) const;

    /** Bookkeep the erase of the die's victim; frees the block. */
    void gcCommitErase(uint32_t die);

    /** Free-space fraction (free blocks / total blocks) on `die`. */
    double freeFraction(uint32_t die) const;

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
     * Verify internal consistency (testing): every mapped LPN points at
     * a slot that points back and lies in a chunk the summary marks
     * written; per-block valid counts match the mapping; free-list
     * blocks are empty; block counts add up. Before the first host write
     * (no maps yet) no block may be written and no summary bit set.
     * Returns true when consistent; otherwise fills `error` with the
     * first violation.
     */
    bool checkInvariants(std::string *error = nullptr) const;

    /**
     * Mutation hook for negative tests: clear the summary bit of `lpn`'s
     * chunk, as a lost update would — the corruption checkInvariants()
     * must catch.
     */
    void
    debugClearChunkBit(uint64_t lpn)
    {
        lpn %= num_lpns_;
        written_[chunkWord(lpn)] &= ~chunkMask(lpn);
    }

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
    /** Lpns per written-chunk summary bit. */
    static constexpr uint64_t kChunkLpns = 64;
    /** Pages per block a mapping entry's 12-bit page field addresses;
     *  also the size of gcCommitMove()'s stack run. */
    static constexpr uint32_t kMaxPagesPerBlock = 4096;
    static constexpr uint32_t kNoBlock = UINT32_MAX;
    static constexpr uint32_t kUnmapped = UINT32_MAX; //!< dead P2L slot

    struct Block
    {
        uint16_t used = 0; //!< slots written
        uint16_t valid = 0; //!< slots still mapped
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

    /**
     * True when some lpn in `lpn`'s chunk has had a host write. Exact in
     * one direction: a clear bit proves the whole chunk unmapped, since
     * only commitHostWrite() maps an lpn and GC moves only mapped ones.
     * `lpn` must be < num_lpns_.
     */
    bool
    chunkWritten(uint64_t lpn) const
    {
        return (written_[chunkWord(lpn)] & chunkMask(lpn)) != 0;
    }

    /** Summary word and bit of `lpn`'s chunk. */
    static size_t chunkWord(uint64_t lpn) { return lpn / kChunkLpns / 64; }
    static uint64_t
    chunkMask(uint64_t lpn)
    {
        return uint64_t{1} << (lpn / kChunkLpns % 64);
    }

    /** Invalidate the mapping entry of `lpn` if present. */
    void invalidate(uint64_t lpn);

    /** Allocate the forward and reverse maps (first host write). */
    void allocateMaps();

    /**
     * Write point `wp` of `d` with room for a page: the current block,
     * or a fresh one from the free list when it is full. `reserve` free
     * blocks are kept back (the host write point leaves the GC reserve
     * alone). Returns kNoBlock when no block can be taken.
     */
    uint32_t openWritePoint(Die &d, uint32_t &wp, size_t reserve);

    /**
     * Install host page `lpn` (already < num_lpns_ and invalidated, maps
     * allocated) on `die`'s host write point: slot, P2L entry, valid
     * count, mapping entry and summary bit. The one host-page install,
     * shared by commitHostWrite() and instantWrite().
     */
    PhysLoc installHostPage(uint32_t lpn, uint32_t die);

    /**
     * Rank up to `k` GC victim candidates on `die` into `out`, best
     * first: fewest valid pages, then lowest block index. Only fully
     * written blocks that hold a dead page and are not a write point
     * qualify. Returns how many were ranked.
     */
    uint32_t rankVictims(uint32_t die, uint32_t *out, uint32_t k) const;

    /** Pick the fullest-dead candidate victim on `die` (greedy): the
     *  first of rankVictims(), or kNoBlock. */
    uint32_t selectVictim(uint32_t die) const;

    /** Run GC to completion (bookkeeping only) until above fg threshold. */
    void instantGc(uint32_t die);

    /**
     * Write one page instantly (preconditioning path): invalidate the
     * old copy once, run instant GC when the die would stall, then
     * installHostPage(). `lpn` < num_lpns_; the maps exist.
     */
    void instantWrite(uint32_t lpn);

    const SsdConfig cfg_;
    uint32_t num_dies_;
    uint32_t blocks_per_die_;
    uint32_t pages_per_block_;
    uint64_t num_lpns_;
    uint64_t filled_lpns_ = 0; //!< prefix written by the sequential fill
    uint32_t gc_start_free_ = 2;

    //! lpn -> packed loc (kUnmappedEntry); empty until the first write
    std::vector<uint32_t> mapping_;
    static constexpr uint32_t kUnmappedEntry = UINT32_MAX;
    //! slot -> lpn (kUnmapped), see slots(); empty until the first write
    std::vector<uint32_t> p2l_;
    //! one bit per kChunkLpns lpns: set once any lpn in it is written
    std::vector<uint64_t> written_;
    std::vector<Die> dies_;

    uint32_t write_rr_ = 0;

    uint64_t host_pages_written_ = 0;
    uint64_t gc_pages_moved_ = 0;
    uint64_t blocks_erased_ = 0;
};

} // namespace isol::ssd

#endif // ISOL_SSD_FTL_HH
