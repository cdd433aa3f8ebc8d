/**
 * @file
 * NVMe SSD device model.
 *
 * A device is a set of flash dies behind shared channels and a host link:
 *   read:  die (tR) -> channel transfer -> host link DMA -> completion
 *   write: host link DMA -> write cache admit (early completion) ->
 *          per-die program pipeline (channel -> tProg), GC interleaved
 *
 * Each die runs a small controller-side scheduler: reads are normally
 * preferred over programs/GC (kReadBurst reads per write-path op), but
 * when the write cache fills past its pressure threshold the controller
 * switches to flush mode and the write path gets strict priority — this
 * is what collapses read throughput under sustained writes on real
 * flash (the paper's read/write interference experiments).
 *
 * Garbage collection runs per die: when the free-block count drops
 * below the spare-aware threshold, valid pages of a greedily-chosen
 * victim are copied (die-internal copyback) and the block is erased;
 * when free blocks run out entirely, host programs stall behind GC.
 *
 * Phase-change (Optane-like) media bypass the FTL: symmetric flat
 * latencies, no cache, no GC.
 */

#ifndef ISOL_SSD_DEVICE_HH
#define ISOL_SSD_DEVICE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.hh"
#include "common/ring.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "sim/fifo_server.hh"
#include "sim/simulator.hh"
#include "ssd/config.hh"
#include "ssd/ftl.hh"

namespace isol::ssd
{

/**
 * One simulated NVMe SSD.
 */
class SsdDevice
{
  public:
    using Callback = sim::SmallCallback;

    /**
     * @param sim simulator
     * @param cfg device model parameters
     * @param seed RNG seed for latency jitter (one stream per device)
     */
    SsdDevice(sim::Simulator &sim, const SsdConfig &cfg, uint64_t seed = 1);

    const SsdConfig &config() const { return cfg_; }

    /**
     * Instant preconditioning (paper §III): sequential fill followed by a
     * random-overwrite pass, leaving the FTL in write steady state.
     * Statistics counters are reset afterwards.
     *
     * @param fill_fraction fraction of the LBA space to fill
     * @param overwrite_passes random overwrites as a multiple of the
     *                         logical page count (1.0 = one full pass)
     */
    void precondition(double fill_fraction = 1.0,
                      double overwrite_passes = 1.0);

    /**
     * Submit one I/O. `done` fires at host-visible completion time.
     * Offsets wrap modulo the device capacity; size must be > 0.
     */
    void submit(OpType op, uint64_t offset, uint32_t size, Callback done);

    // --- Statistics ---
    uint64_t bytesRead() const { return bytes_read_; }
    uint64_t bytesWritten() const { return bytes_written_; }
    uint64_t readsCompleted() const { return reads_completed_; }
    uint64_t writesCompleted() const { return writes_completed_; }

    /** Cumulative busy ns summed over all dies. */
    SimTime totalDieBusyNs() const;

    /** Mean die utilisation in [0,1] since simulation start. */
    double dieUtilization() const;

    /** Write amplification factor since the last precondition(). */
    double waf() const { return ftl_.waf(); }

    uint64_t gcPagesMoved() const { return ftl_.gcPagesMoved(); }
    uint64_t blocksErased() const { return ftl_.blocksErased(); }

    /** Expose the FTL for white-box tests. */
    const Ftl &ftl() const { return ftl_; }

  private:
    /**
     * Per-die controller scheduler: a read queue and a write-path queue
     * (programs, GC moves, erases) with pressure-dependent arbitration.
     */
    struct DieQueue
    {
        struct Op
        {
            SimTime service;
            Callback done;
        };

        common::RingDeque<Op> reads;
        common::RingDeque<Op> write_path;
        /** Completion of the op in service; a captured-`die` event fires
         *  it, keeping the event capture inside the inline buffer. */
        Callback active_done;
        bool busy = false;
        SimTime busy_ns = 0;
        uint64_t jobs = 0;
        uint32_t read_credit = 0; //!< reads served since last write op
        uint32_t write_credit = 0; //!< write ops since last read
    };

    /** Queue a read op on `die` and pump it. */
    void dieRead(uint32_t die, SimTime service, Callback done);

    /** Queue a write-path op (program/GC/erase) on `die` and pump it. */
    void dieWrite(uint32_t die, SimTime service, Callback done);

    /** Start the next op on `die` if it is idle. */
    void pumpDie(uint32_t die);

    /** True when the write cache is under flush pressure. */
    bool writePressure() const;

    /** Jittered service time for a die operation. */
    SimTime jitter(SimTime base);

    /** Jittered read time including the read-retry tail. */
    SimTime readServiceTime();

    SimTime transferTime(uint64_t bytes, uint64_t bw) const;

    sim::FifoServer &channelOf(uint32_t die);

    // Read pipeline ------------------------------------------------------
    struct ReadState
    {
        uint32_t remaining = 0;
        uint32_t size = 0;
        Callback done;
    };

    void submitFlashRead(uint64_t offset, uint32_t size, Callback done);
    void finishRead(ReadState *state);

    // Write pipeline -----------------------------------------------------
    struct WriteAdmit
    {
        std::vector<uint64_t> lpns; //!< capacity retained across reuse
        uint32_t size = 0;
        Callback done;
    };

    void submitFlashWrite(uint64_t offset, uint32_t size, Callback done);
    void tryAdmitWrites();
    void admitWrite(WriteAdmit *admit);
    void pumpDiePrograms(uint32_t die);
    void onProgramDone(uint32_t die);

    // GC -----------------------------------------------------------------
    void pumpGc(uint32_t die);

    // Phase-change (Optane) path ------------------------------------------
    void submitPcm(OpType op, uint64_t offset, uint32_t size, Callback done);

    sim::Simulator &sim_;
    const SsdConfig cfg_;
    Rng rng_;
    Ftl ftl_;

    std::vector<DieQueue> dies_;
    std::vector<std::unique_ptr<sim::FifoServer>> channels_;
    sim::FifoServer link_;

    // Request-pipeline pools: completion state lives in typed arenas
    // (raw pointers captured in events), not per-I/O shared_ptr boxes.
    common::Arena<ReadState> read_states_;
    common::Arena<WriteAdmit> write_admits_;

    // Write cache and per-die program state (flash only).
    uint32_t cache_used_ = 0;
    common::RingDeque<WriteAdmit *> cache_wait_;
    std::vector<common::RingDeque<uint64_t>> pending_programs_;
    std::vector<uint32_t> programs_inflight_;
    std::vector<bool> gc_active_;

    uint64_t bytes_read_ = 0;
    uint64_t bytes_written_ = 0;
    uint64_t reads_completed_ = 0;
    uint64_t writes_completed_ = 0;
};

} // namespace isol::ssd

#endif // ISOL_SSD_DEVICE_HH
