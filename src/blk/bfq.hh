/**
 * @file
 * BFQ elevator model (paper §IV-B).
 *
 * Captures the BFQ behaviours the paper measures:
 *  - per-cgroup queues with weight-proportional service (a B-WF2Q+-style
 *    virtual-time scheduler over io.bfq.weight, resolved hierarchically);
 *  - exclusive in-service queue with a byte budget per slice;
 *  - `slice_idle`: when the in-service queue runs dry, BFQ idles the
 *    dispatch path briefly waiting for more I/O from the same queue —
 *    the cause of the unstable bandwidth in the paper's Fig. 2c/2d and a
 *    key contributor to BFQ's low NVMe throughput;
 *  - `low_latency` exists as a toggle but defaults off (paper §III
 *    disables it because it changes priorities dynamically).
 *
 * The per-device single dispatch lock is modelled by BlockDevice via
 * dispatchCost().
 */

#ifndef ISOL_BLK_BFQ_HH
#define ISOL_BLK_BFQ_HH

#include "blk/cg_state.hh"
#include "blk/elevator.hh"
#include "common/ring.hh"
#include "sim/simulator.hh"

namespace isol::blk
{

/** Tunables mirroring /sys/block/<dev>/queue/iosched for bfq. */
struct BfqParams
{
    SimTime slice_idle = msToNs(8); //!< 0 disables idling
    uint64_t max_budget = 4 * MiB; //!< bytes served per slice
    bool low_latency = false; //!< paper disables this
};

/**
 * BFQ scheduler.
 */
class Bfq : public Elevator
{
  public:
    Bfq(sim::Simulator &sim, cgroup::CgroupTree &tree, BfqParams params = {});
    ~Bfq() override;

    void insert(Request *req) override;
    Request *selectNext() override;
    bool empty() const override;
    size_t queued() const override;
    uint64_t bookkeepingOps() const override { return bookkeeping_ops_; }

    /** Groups with live queues (shrinks on cgroup removal). */
    size_t trackedQueues() const { return queues_.size(); }

  private:
    struct Queue
    {
        const cgroup::Cgroup *cg = nullptr;
        common::RingDeque<Request *> fifo;
        double vfinish = 0.0; //!< virtual finish time (bytes / weight)
        uint64_t slice_served = 0; //!< bytes served in the current slice
        SimTime last_busy = -1; //!< when the queue last had service
        uint64_t seq = 0; //!< creation order, for deterministic ties
        /** Hierarchical weight cached against the tree version so the
         *  per-dispatch hot path stops walking the cgroup tree. */
        double weight = 100.0;
        uint64_t weight_version = 0;
    };

    Queue &queueFor(const cgroup::Cgroup *cg);

    /** Drop the queue when a cgroup is removed (tree listener). */
    void onCgroupRemoved(cgroup::Cgroup &cg);

    /** Weight share of a queue (hierarchical io.bfq.weight, cached). */
    double weightOf(Queue &q);

    /** Non-empty queue with the minimum virtual finish time. */
    Queue *pickQueue();

    /** The in-service queue, or nullptr (identity is the cgroup: slot
     *  positions move under arena growth and swap-remove). */
    Queue *inServiceQueue();

    Request *serveFrom(Queue *q);

    sim::Simulator &sim_;
    cgroup::CgroupTree &tree_;
    BfqParams params_;

    /** Queues in a flat dense-id arena. pickQueue() breaks virtual-time
     *  ties by each queue's creation `seq`, never by slot position or
     *  pointer value, so selection is deterministic across runs and
     *  unaffected by swap-remove perturbation. */
    CgStateArena<Queue> queues_;
    bool has_in_service_ = false;
    const cgroup::Cgroup *in_service_cg_ = nullptr;
    bool idling_ = false;
    sim::EventId idle_event_ = sim::kInvalidEventId;
    double vtime_ = 0.0; //!< global virtual time
    size_t queued_ = 0;
    uint64_t next_seq_ = 0;
    size_t removal_token_ = 0;
    uint64_t bookkeeping_ops_ = 0;
};

} // namespace isol::blk

#endif // ISOL_BLK_BFQ_HH
