/**
 * @file
 * io.max throttling (Linux blk-throttle) model.
 *
 * Each cgroup gets four token buckets per device (rbps/wbps/riops/wiops).
 * A request passes when every applicable bucket has credit; otherwise it
 * queues FIFO inside its cgroup and is released when its dimensions are
 * satisfied. As in the kernel, accumulated idle credit is capped at one
 * throttle slice so a limit cannot be burst around after an idle period.
 *
 * Enforcement is hierarchical (kernel blk-throttle walks the
 * throtl_grp ancestors): a request must clear the buckets of its own
 * cgroup *and* of every ancestor that sets a limit, and admission
 * charges the whole chain. An io.max written at an interior node is
 * therefore a shared token bucket capping the subtree's aggregate. The
 * walk follows the cgroup's cached ancestor-chain of dense ids into
 * flat arena state, so it is O(depth) with no hashing.
 *
 * A throttled cgroup parks in the per-direction waiter FIFO of
 * whichever chain entry blocks its head request — its own when its own
 * buckets are latest — and that node arms one wake timer for the whole
 * FIFO: the kernel's parent throtl_service_queue, which holds its
 * children's pending bios behind a single pending timer. A wake serves
 * waiters from the head and stops at the first one still blocked by
 * the same node and direction (admission time does not depend on
 * size, so every waiter behind it would fail too); waiters now blocked
 * elsewhere move to that timer or FIFO. Credit freed at a shared
 * bucket therefore costs one wake-up, not one per throttled sibling.
 *
 * io.max is static: it never unthrottles in the absence of other load,
 * which is exactly the non-work-conserving behaviour the paper measures
 * (O8, Fig. 2e).
 */

#ifndef ISOL_BLK_QOS_MAX_HH
#define ISOL_BLK_QOS_MAX_HH

#include "blk/cg_state.hh"
#include "blk/rq_qos.hh"
#include "common/ring.hh"

namespace isol::blk
{

/**
 * Per-device io.max gate.
 */
class IoMaxGate : public RqQos
{
  public:
    using RqQos::RqQos;

    /** Admit or queue a request. */
    void submit(Request *req) override;

    /** verifyHierarchicalConsumption(), then verifyWaiters(). */
    void
    finalChecks() override
    {
        verifyHierarchicalConsumption();
        verifyWaiters();
    }

    /** Groups with live gate state (shrinks on cgroup removal). */
    size_t trackedGroups() const { return states_.size(); }

    /** Bytes consumed against `cg`'s buckets, subtree-wide (testing). */
    uint64_t consumedBytesOf(const cgroup::Cgroup *cg) const;

    /** Cgroups parked in a waiter FIFO, their own or an ancestor's
     *  (testing). */
    size_t parkedWaiters() const { return parked_; }

    /** Time of `node`'s armed wake for `op`'s direction, or -1 when no
     *  waiter is parked there (testing). */
    SimTime wakeTimeOf(const cgroup::Cgroup *node, OpType op) const;

    /**
     * Every throttled cgroup waits exactly once: a non-empty queue is
     * in exactly one waiter FIFO, the FIFO links are consistent, a wake
     * is armed iff its FIFO is non-empty, and throttled() equals the
     * sum of queue lengths. O(groups); no-op when checking is off.
     */
    void verifyWaiters();

    /**
     * End-of-run hierarchical conservation: for every interior node,
     * the sum of its children's subtree consumption must not exceed its
     * own (charges always walk whole chains). No-op when checking is
     * off.
     */
    void verifyHierarchicalConsumption();

    /**
     * Mutation hook for negative tests: after a fixed number of credit
     * consumptions, corrupt one token bucket by moving its horizon to a
     * negative time — exactly the accounting bug the invariant checker's
     * non-negativity check must catch.
     */
    void setDebugCorruptBucket(bool on) { debug_corrupt_bucket_ = on; }

  private:
    /**
     * Virtual-time token bucket: `next_free` is the time at which enough
     * credit exists for the next unit; consuming advances it.
     */
    struct Bucket
    {
        SimTime next_free = 0;
        double inv_last = 0.0; //!< monotone-series slot (checker)
    };

    /**
     * Queue entry with the admission-relevant fields laid out inline so
     * drain scans never dereference the Request until it passes.
     */
    struct QEnt
    {
        Request *req;
        OpType op;
        uint32_t size;
    };

    /** No cgroup: empty FIFO link, not parked, no blocker. */
    static constexpr cgroup::CgroupId kNoGroup = UINT32_MAX;

    /** Waiter-FIFO direction index: 0 = read, 1 = write. */
    static size_t dirOf(OpType op) { return op == OpType::kRead ? 0 : 1; }

    /** Admission time of one request and the chain entry that sets it. */
    struct Admission
    {
        SimTime when;
        /** Latest bucket's node (first in chain order on ties); kNoGroup
         *  when the request may pass now. */
        cgroup::CgroupId blocker;
    };

    struct CgState
    {
        const cgroup::Cgroup *cg = nullptr;
        Bucket rbps;
        Bucket wbps;
        Bucket riops;
        Bucket wiops;
        /** io.max limits cached against the tree version: per-request
         *  chain walks do one version compare instead of a map find. */
        cgroup::IoMaxLimits limits;
        uint64_t limits_version = 0;
        bool limited = false;
        /** Subtree-wide consumption (self + descendants), for the
         *  hierarchical conservation checks. */
        uint64_t consumed_bytes = 0;
        uint64_t consumed_ios = 0;
        common::RingDeque<QEnt> queue;
        /** As a waiter: the node whose FIFO holds this group (kNoGroup
         *  when not parked) and the next waiter behind it. */
        cgroup::CgroupId parked_on = kNoGroup;
        cgroup::CgroupId next_waiter = kNoGroup;
        /** As a blocking node, per direction: intrusive waiter FIFO and
         *  the armed wake (time -1 when none is armed). */
        cgroup::CgroupId wait_head[2] = {kNoGroup, kNoGroup};
        cgroup::CgroupId wait_tail[2] = {kNoGroup, kNoGroup};
        SimTime wake_at[2] = {-1, -1};
        sim::EventId wake_ev[2] = {sim::kInvalidEventId,
                                   sim::kInvalidEventId};
    };

    /** Materialize state for `cg` and every ancestor below the root. */
    void ensureChainStates(const cgroup::Cgroup *cg);

    void onCgroupRemoved(cgroup::Cgroup &cg) override;

    /** Refresh the cached limits when the tree changed. */
    const cgroup::IoMaxLimits &limitsOf(CgState &st);

    /**
     * Earliest time an (op, size) request from `cg` may pass given the
     * buckets of the whole ancestor chain (== now when it may pass
     * immediately), and which chain entry sets it. Does not consume
     * credit.
     */
    Admission admissionTime(const cgroup::Cgroup *cg, OpType op,
                            uint32_t size);

    /** Consume credit along the whole chain for an admitted request. */
    void consume(const cgroup::Cgroup *cg, OpType op, uint32_t size);

    /** Advance one state's applicable buckets. */
    void advanceBuckets(CgState &st, OpType op, uint32_t size);

    /**
     * Pass `cg`'s queued requests FIFO while the head may go. Returns
     * the blocked head's admission, or a kNoGroup blocker once the
     * queue is empty.
     */
    Admission release(const cgroup::Cgroup *cg);

    /** Park `cg` at the tail of `adm.blocker`'s FIFO for the head's
     *  direction, arming or advancing the blocker's wake. */
    void wait(const cgroup::Cgroup *cg, Admission adm);

    /** Arm `node`'s wake for direction `dir` at `when`. */
    void armWake(CgState &node, size_t dir, SimTime when);

    /** `node`'s wake timer for direction `dir`: serve its FIFO. */
    void wake(const cgroup::Cgroup *node, size_t dir);

    /** Unlink the head of `node`'s FIFO for `dir`. */
    void popWaiter(CgState &node, size_t dir);

    /** Credit horizon (kernel throtl_slice for SSDs is ~20 ms). */
    static constexpr SimTime kSlice = msToNs(20);

    CgStateArena<CgState> states_;
    size_t parked_ = 0;
    std::vector<uint64_t> id_scratch_;
    bool debug_corrupt_bucket_ = false;
    uint64_t debug_consumes_ = 0;
};

} // namespace isol::blk

#endif // ISOL_BLK_QOS_MAX_HH
