/**
 * @file
 * BlockDevice: the per-device block-layer pipeline tying the cgroup I/O
 * control knobs to the SSD model.
 *
 *   submit -> [insert lock] -> [rq-qos gate] -> tags(nr_requests)
 *          -> elevator -> [dispatch lock] -> SSD
 *
 * The device runs one elevator (none / mq-deadline / bfq / kyber) and
 * at most one rq-qos gate (io.max / io.latency / io.cost, see
 * blk/rq_qos.hh), the way the paper evaluates the knobs: one at a time.
 * The scheduler lock exists only for MQ-DL and BFQ: every request takes
 * it on insert and again on dispatch, a serialized per-device critical
 * section that caps their NVMe bandwidth in the paper's Fig. 4 (≈1.8 /
 * ≈0.7 GiB/s on one SSD).
 */

#ifndef ISOL_BLK_BLOCK_DEVICE_HH
#define ISOL_BLK_BLOCK_DEVICE_HH

#include <memory>

#include "blk/bfq.hh"
#include "blk/elevator.hh"
#include "blk/qos_cost.hh"
#include "blk/qos_latency.hh"
#include "blk/qos_max.hh"
#include "blk/request.hh"
#include "blk/rq_qos.hh"
#include "common/ring.hh"
#include "sim/fifo_server.hh"
#include "sim/invariants.hh"
#include "sim/simulator.hh"
#include "ssd/device.hh"

namespace isol::blk
{

/**
 * Configuration of one block device's I/O control stack: one elevator,
 * at most one rq-qos gate, and the CPU/lock costs each of them adds.
 */
struct BlockDeviceConfig
{
    cgroup::DeviceId dev_id = 0;
    ElevatorType elevator = ElevatorType::kNone;
    QosType qos = QosType::kNone;
    /**
     * Scheduler tags available on the device. NVMe exposes one hardware
     * queue per CPU (each with its own tag space), so the effective tag
     * pool is large and rarely binds — if it did, its FIFO wait queue
     * would override the elevator's policy. io.latency's queue-depth
     * mechanism uses the classic per-device nr_requests
     * (iolat_params.max_nr_requests, 1024) independently.
     */
    uint32_t nr_requests = 16384;

    BfqParams bfq_params;
    IoLatencyParams iolat_params;

    /**
     * mq-deadline's scheduler-lock hold time per acquisition (BFQ's is
     * fixed in block_device.cc). Every request acquires the lock twice
     * (insert + dispatch), so one request costs 2x this on the serialized
     * path — the source of the paper's single-SSD bandwidth plateaus
     * (Fig. 4a) — and submitters *spin* for the current backlog, burning
     * their own CPU (Fig. 4c: a full core per batch-app under MQ-DL/BFQ).
     */
    SimTime mq_lock_hold = nsToNs(1050);

    /**
     * Runtime invariant checker shared by the whole scenario (nullptr =
     * checking off; every hook is then a single pointer test). Owned by
     * the Scenario, not the device.
     */
    sim::InvariantChecker *invariants = nullptr;
};

/**
 * One NVMe block device with its cgroup I/O control pipeline.
 */
class BlockDevice
{
  public:
    BlockDevice(sim::Simulator &sim, cgroup::CgroupTree &tree,
                ssd::SsdDevice &ssd, BlockDeviceConfig cfg);

    const BlockDeviceConfig &config() const { return cfg_; }
    ssd::SsdDevice &ssd() { return ssd_; }

    /** Arm periodic controllers (io.latency window, io.cost period). */
    void start();

    /**
     * Enter a request into the pipeline. The caller has already paid the
     * submission CPU cost (engine cost + perIoCpuExtra()).
     */
    void submit(Request *req);

    /**
     * Extra submit-side CPU one I/O costs under the enabled knobs
     * (elevator insert/lock work + qos accounting).
     */
    SimTime perIoCpuExtra() const { return cpu_extra_; }

    /**
     * CPU time the submitting thread will burn spinning on the scheduler
     * lock if it submits right now (0 without an elevator lock). A real
     * thread only spins while the current holder holds, so the wait is
     * bounded by the number of contending submitters, not by the whole
     * async backlog. The submitter charges this to its core in parallel
     * with the submission.
     */
    SimTime submitSpinTime() const;

    /** A job on this device started (lock-contention accounting). */
    void registerSubmitter() { ++submitters_; }

    /** A job on this device stopped. */
    void
    unregisterSubmitter()
    {
        if (submitters_ > 0)
            --submitters_;
    }

    uint32_t submitters() const { return submitters_; }

    // --- Statistics / white-box access ---
    uint64_t submitted() const { return submitted_; }
    uint64_t completed() const { return completed_; }
    uint32_t inflight() const { return inflight_; }

    size_t tagWaiting() const { return tag_wait_.size(); }
    /** The rq-qos gate as its concrete type, nullptr if another runs. */
    IoMaxGate *ioMaxGate() { return dynamic_cast<IoMaxGate *>(qos_.get()); }
    IoCostGate *ioCostGate() { return dynamic_cast<IoCostGate *>(qos_.get()); }
    Elevator &elevator() { return *elevator_; }

    /**
     * Per-cgroup bookkeeping work of the gate and the elevator: share
     * recomputes, donation passes, chain charge walks, window scans,
     * queue-selection scans. Deterministic (pure event counts), so
     * benches report it alongside throughput to show where gate state
     * handling becomes the hot path at high tenant counts.
     */
    uint64_t gateBookkeepingOps() const;

    /**
     * End-of-run hierarchical conservation checks of the gate (no-op
     * when invariant checking is off or no gate runs).
     */
    void finalInvariantChecks();

  private:
    void afterLock(Request *req);
    void enterTags(Request *req);
    void enterElevator(Request *req);
    void pumpDispatch();
    void issueToDevice(Request *req);
    void finishRequest(Request *req);

    sim::Simulator &sim_;
    cgroup::CgroupTree &tree_;
    ssd::SsdDevice &ssd_;
    BlockDeviceConfig cfg_;

    std::unique_ptr<Elevator> elevator_;
    std::unique_ptr<RqQos> qos_;
    std::unique_ptr<sim::FifoServer> dispatch_lock_;

    SimTime dispatch_cost_ = 0;
    SimTime cpu_extra_ = 0; //!< perIoCpuExtra(), fixed at construction
    common::RingDeque<Request *> tag_wait_;
    uint32_t inflight_ = 0; //!< holding a tag (elevator + device)
    uint32_t dispatch_pending_ = 0;
    bool pumping_ = false;

    uint64_t submitted_ = 0;
    uint64_t completed_ = 0;
    uint32_t submitters_ = 0;
    sim::InvariantChecker *inv_ = nullptr;
};

} // namespace isol::blk

#endif // ISOL_BLK_BLOCK_DEVICE_HH
