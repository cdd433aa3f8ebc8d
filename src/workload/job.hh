/**
 * @file
 * fio-like workload generator.
 *
 * A FioJob models one fio job (one app thread): it keeps `iodepth` I/Os
 * outstanding against one block device, paces itself under a rate limit,
 * optionally runs a bursty on/off duty cycle, charges submission and
 * completion CPU to its core, and records latency/bandwidth statistics.
 */

#ifndef ISOL_WORKLOAD_JOB_HH
#define ISOL_WORKLOAD_JOB_HH

#include <memory>
#include <string>
#include <vector>

#include "blk/block_device.hh"
#include "cgroup/cgroup.hh"
#include "common/arena.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "host/cpu.hh"
#include "host/engine.hh"
#include "sim/simulator.hh"
#include "stats/histogram.hh"
#include "stats/timeseries.hh"

namespace isol::workload
{

/**
 * Misbehaving-tenant profile. adversaryApp() turns it into plain
 * JobSpec fields (qd ramp, fsync barrier, reap stall, duty cycle).
 * Catalog, parsing, and factories: workload/adversary.hh.
 */
enum class AdversaryKind : uint8_t
{
    kNone, //!< well-behaved tenant
    kQueueFlood, //!< unbounded queue-depth ramp
    kGcStorm, //!< write bursts that exhaust the FTL free-block pool
    kSquareWave, //!< bursty on/off duty cycle
    kFlushStorm, //!< fsync barrier after every few writes
    kSlowDrain, //!< submits fast, stalls completions on a starved CPU
};

/** Everything configurable about one job (fio option subset). */
struct JobSpec
{
    std::string name = "job";
    OpType op = OpType::kRead; //!< used when read_fraction is 0 or 1
    double read_fraction = 1.0; //!< fraction of reads in a mixed job
    AccessPattern pattern = AccessPattern::kRandom;
    uint32_t block_size = 4 * KiB;
    uint32_t iodepth = 1;
    uint64_t rate_bps = 0; //!< 0 = unlimited
    SimTime start_time = 0;
    SimTime duration = secToNs(int64_t{1});
    SimTime burst_on = 0; //!< issue window of a duty cycle (0 = steady)
    SimTime burst_off = 0; //!< pause window of a duty cycle
    uint64_t seed = 1;
    SimTime stats_bin = msToNs(100); //!< bandwidth time-series bin width

    // --- Chaos-plane mechanics (all off by default) ---

    /**
     * Queue-depth ramp (queue-flooder): start with this effective depth
     * and double it every `qd_ramp_interval` until `iodepth` is reached.
     * 0 disables the ramp (full depth immediately).
     */
    uint32_t qd_ramp_start = 0;
    SimTime qd_ramp_interval = 0;

    /**
     * fsync/flush barrier: after every `fsync_every` completed writes,
     * stop issuing until all outstanding I/O has drained (the flush
     * semantics that serialize a write-ahead log). 0 disables.
     */
    uint32_t fsync_every = 0;

    /**
     * Slow-drain: extra completion-side CPU charged per reaped I/O. A
     * large value clogs the completion path of this job's core, so the
     * device stays loaded while completions back up. 0 disables.
     */
    SimTime reap_stall = 0;
};

/**
 * One running fio job.
 */
class FioJob
{
  public:
    /**
     * @param sim simulator
     * @param spec job parameters
     * @param bdev block device to target
     * @param core CPU core the job's thread is pinned to
     * @param engine storage-engine CPU cost model
     * @param tree cgroup hierarchy (process attach/detach)
     * @param cg cgroup the job's process lives in (may be null)
     * @param task unique task id for CPU accounting
     */
    FioJob(sim::Simulator &sim, JobSpec spec, blk::BlockDevice &bdev,
           host::CpuCore &core, host::EngineConfig engine,
           cgroup::CgroupTree &tree, cgroup::Cgroup *cg,
           host::TaskId task);

    ~FioJob();
    FioJob(const FioJob &) = delete;
    FioJob &operator=(const FioJob &) = delete;

    /** Arm the start/stop events. Call once before running the sim. */
    void schedule();

    /** Restrict latency/window statistics to [from, to). */
    void setMeasureWindow(SimTime from, SimTime to);

    const JobSpec &spec() const { return spec_; }
    bool running() const { return running_; }

    /** I/Os currently outstanding (submitted, not yet reaped). */
    uint32_t inflight() const { return inflight_; }

    /** Completed fsync barriers (flush-storm adversary). */
    uint64_t flushes() const { return flushes_; }

    // --- Statistics ---

    /** Completion latencies within the measure window. */
    const stats::Histogram &latency() const { return latency_; }

    /** Completed bytes over time (100 ms bins, whole run). */
    const stats::TimeSeries &bandwidthSeries() const { return series_; }

    /** Bytes completed inside the measure window. */
    uint64_t windowBytes() const { return window_bytes_; }

    /** I/Os completed inside the measure window. */
    uint64_t windowIos() const { return window_ios_; }

    /** Mean bandwidth across the measure window, bytes/s. */
    double windowBandwidth() const;

    /** Total I/Os completed (whole run). */
    uint64_t totalIos() const { return total_ios_; }

  private:
    struct Inflight; // one outstanding I/O

    void start();
    void stop();
    void fillQueue();
    void tryIssue();
    void issueNow(SimTime issue_start);
    void onBlkComplete(Inflight *slot);
    void finishIo(Inflight *slot);
    void burstToggle();
    void rampDepth();

    uint64_t pickOffset();
    OpType pickOp();

    sim::Simulator &sim_;
    JobSpec spec_;
    blk::BlockDevice &bdev_;
    host::CpuCore &core_;
    host::EngineConfig engine_;
    cgroup::CgroupTree &tree_;
    cgroup::Cgroup *cg_;
    host::TaskId task_;
    Rng rng_;

    bool running_ = false;
    bool attached_ = false;
    bool burst_paused_ = false;
    bool fsync_draining_ = false; //!< barrier: wait for a full drain
    uint32_t inflight_ = 0;
    uint32_t depth_limit_ = 0; //!< effective iodepth cap (qd ramp)
    uint32_t writes_since_flush_ = 0;
    uint64_t flushes_ = 0;
    uint64_t issued_bytes_ = 0;
    SimTime pace_vtime_ = 0; //!< rate-limit virtual clock
    uint64_t blocks_ = 1; //!< block_size blocks on the device
    uint64_t seq_cursor_ = 0;
    SimTime started_at_ = 0;
    sim::EventId pace_event_ = sim::kInvalidEventId;
    sim::EventId burst_event_ = sim::kInvalidEventId;
    sim::EventId ramp_event_ = sim::kInvalidEventId;

    common::Arena<Inflight> slots_;

    SimTime measure_from_ = 0;
    SimTime measure_to_ = kSimTimeMax;
    stats::Histogram latency_;
    stats::TimeSeries series_;
    uint64_t window_bytes_ = 0;
    uint64_t window_ios_ = 0;
    uint64_t total_ios_ = 0;
};

} // namespace isol::workload

#endif // ISOL_WORKLOAD_JOB_HH
