/**
 * @file
 * io.cost (blk-iocost) model — the paper's most capable knob (§IV-B).
 *
 * Mechanism, following the paper's description and Heo et al. [33]:
 *  - io.cost.model: a linear device cost model. Every I/O has an absolute
 *    cost in device-seconds: size/bps + 1/iops, with distinct
 *    coefficients for reads vs writes and sequential vs random — this is
 *    why io.cost handles mixed request sizes and writes where io.max and
 *    io.latency fail (O9), and why it shows read-preference in mixed
 *    read/write fairness (O5);
 *  - io.weight: absolute weights 1-10000, resolved hierarchically among
 *    *active* groups into an hweight share. Idle groups donate their
 *    share (work conservation, Fig. 2g/h);
 *  - hweight donation (kernel `hweight_inuse`): an active group that
 *    does not consume its share (e.g. a QD1 LC-app holding weight
 *    10000) keeps only its usage plus headroom; the surplus is
 *    re-distributed to budget-constrained groups each period. Without
 *    this, a high-weight low-usage app would strand device capacity
 *    instead of merely being protected;
 *  - virtual time: the device clock advances at `vrate`; each group may
 *    consume abs_cost/hweight of it. A group running ahead of the device
 *    clock (plus a small margin) is throttled until the clock catches up;
 *  - io.cost.qos: per-period latency-percentile checks scale vrate
 *    between min and max — an *achievable* model plus min=50% caps
 *    aggregate bandwidth at half the model rate, reproducing the paper's
 *    observation O3 (1.26 vs 2.92 GiB/s);
 *  - the period timer runs as host CPU work: past CPU saturation the
 *    timer's walk over active groups delays queued submissions and
 *    inflates tail latency — the paper's O1 io.cost overhead (+48% P99 at
 *    16 LC-apps) without any effect before saturation.
 */

#ifndef ISOL_BLK_QOS_COST_HH
#define ISOL_BLK_QOS_COST_HH

#include <memory>
#include <vector>

#include "blk/cg_state.hh"
#include "blk/rq_qos.hh"
#include "common/ring.hh"
#include "stats/histogram.hh"

namespace isol::blk
{

/** Mechanism tunables (kernel-internal constants, not cgroup knobs). */
struct IoCostParams
{
    SimTime period = msToNs(5); //!< qos / donation timer period
    SimTime margin = msToNs(10); //!< allowed vtime lead
    SimTime credit_cap = msToNs(100); //!< max idle credit
    SimTime timer_cpu_base = usToNs(4); //!< timer CPU cost, fixed part
    SimTime timer_cpu_per_group = usToNs(10); //!< per active group
    double vrate_step_down = 0.85; //!< multiplicative decrease
    double vrate_step_up = 0.05; //!< additive increase (fraction)
    /** Ablation switch: disable hweight donation (surplus budget stays
     *  stranded with high-weight low-usage groups). */
    bool enable_donation = true;
};

/**
 * Per-device io.cost controller.
 */
class IoCostGate : public RqQos
{
  public:
    /** Charges CPU time and calls the continuation when it retires. */
    using CpuChargeFn =
        sim::SmallFunction<void(SimTime, sim::SmallCallback)>;

    IoCostGate(sim::Simulator &sim, cgroup::DeviceId dev,
               cgroup::CgroupTree &tree, PassFn pass,
               IoCostParams params = {});

    /** Optional: route the period-timer work through a CPU core. */
    void setCpuCharge(CpuChargeFn fn) { cpu_charge_ = std::move(fn); }

    /** Arm the period timer. */
    void start() override;

    /** Admit or queue a request against the group's vtime budget. */
    void submit(Request *req) override;

    /** Records the dispatch -> complete device latency for qos. */
    void onComplete(Request *req) override;

    /**
     * Charge the issuing group for one retried attempt of `req`: the
     * aborted attempt's device time is spent, so the group is debited a
     * full absCost even though no completion arrives — retried work is
     * visible to the knob (the group may run into vtime debt and be
     * throttled on its next submission).
     */
    void onRequeue(Request *req) override;

    /** A final checkHierarchicalCharges() sweep. */
    void finalChecks() override { checkHierarchicalCharges(); }

    /** Current vrate in [qos.min, qos.max] / 100. */
    double vrate() const { return vrate_; }

    /** Absolute cost of an I/O in device-ns under the current model. */
    SimTime absCost(const Request &req) const
    {
        return absCost(req.op, req.sequential, req.size);
    }

    /**
     * Cost-model evaluation on the inline queue-entry fields. Always
     * computed against the *live* model: io.cost.model can be rewritten
     * at runtime, so costs are never cached at submit time.
     */
    SimTime absCost(OpType op, bool sequential, uint32_t size) const;

    /** Hierarchical weight share of `cg` among active groups (testing). */
    double shareOf(const cgroup::Cgroup *cg);

    /** Groups with live gate state (shrinks on cgroup removal). */
    size_t trackedGroups() const { return states_.size(); }

    /** Total abs cost charged to `cg`'s subtree so far (testing). */
    double subtreeAbsOf(const cgroup::Cgroup *cg) const;

    /** Hierarchical conservation: children never outspend the parent.
     *  Runs every period when checking is on; also callable at end of
     *  run for a final full sweep. */
    void checkHierarchicalCharges();

  private:
    /**
     * Queue entry with the cost-model inputs laid out inline: drain()
     * evaluates the model per head scan without touching the Request.
     */
    struct QEnt
    {
        Request *req;
        OpType op;
        bool sequential;
        uint32_t size;
    };

    struct CgState
    {
        const cgroup::Cgroup *cg = nullptr;
        double vtime = 0.0; //!< consumed device-vtime (ns)
        double raw_share = 1.0; //!< weight-derived hweight
        double share = 1.0; //!< effective share after donation
        double period_abs = 0.0; //!< abs cost charged this period
        double subtree_abs = 0.0; //!< abs cost charged to the subtree
        double inv_vtime_last = 0.0; //!< monotone-series slot (checker)
        bool active = false;
        SimTime last_io = 0;
        common::RingDeque<QEnt> queue;
        sim::EventId wake_event = sim::kInvalidEventId;
    };

    CgState &stateFor(const cgroup::Cgroup *cg);

    /** Materialize gate state for `cg` and every ancestor below the
     *  root, so charge walks can assume the whole chain is present. */
    void ensureChainStates(const cgroup::Cgroup *cg);

    void onCgroupRemoved(cgroup::Cgroup &cg) override;

    /** Advance the device virtual clock to the present. */
    void updateVnow();

    /** Mark a group active and recompute shares if needed. */
    void activate(CgState &st);

    /** Recompute shares iff the active set or the tree changed. */
    void ensureShares();

    /** Recompute hweight shares over the active set. */
    void recomputeShares();

    /** Charge `abs` to every node on `cg`'s ancestor chain. */
    void chargeSubtree(const cgroup::Cgroup *cg, double abs);

    /** Per-period hweight donation: cap donors at usage, give surplus
     *  to constrained groups. */
    void donateShares();

    /** Try to pass queued requests of one group; reschedule otherwise. */
    void drain(CgState &st);

    /** Admission test + charge for one (op, sequential, size) I/O. */
    bool tryCharge(CgState &st, OpType op, bool sequential, uint32_t size);

    /** Period processing: deactivation, qos vrate scaling, re-drain. */
    void periodTick();
    void periodWork();

    IoCostParams params_;
    CpuChargeFn cpu_charge_;

    /** Group states in a flat dense-id arena, iterated in registration
     *  order (swap-remove perturbs it deterministically). donateShares()
     *  folds floating-point sums and periodWork() re-drains queues while
     *  iterating, so the order must never depend on pointer hash values
     *  — and it does not: slots are assigned by event order alone. */
    CgStateArena<CgState> states_;
    std::unique_ptr<sim::PeriodicTimer> timer_;

    double vrate_ = 1.0;
    double vnow_ = 0.0; //!< device virtual clock (ns)
    SimTime vnow_updated_ = 0;
    size_t active_count_ = 0;

    /** Share cache validity: recompute lazily when the active set flips
     *  (dirty flag) or any cgroup knob/topology changed (tree version),
     *  so an activation storm at 1000 tenants coalesces into one
     *  recompute instead of one per submit. */
    bool shares_dirty_ = true;
    uint64_t shares_tree_version_ = 0;

    /** Scratch for recomputeShares(), indexed by dense CgroupId; kept
     *  as members so steady-state recomputes do not allocate. */
    std::vector<uint8_t> marked_scratch_;
    std::vector<uint64_t> weight_sum_scratch_;
    std::vector<cgroup::CgroupId> marked_ids_;
    std::vector<CgState *> donate_receivers_;
    std::vector<double> child_abs_scratch_;

    stats::Histogram window_read_lat_;
    stats::Histogram window_write_lat_;
};

} // namespace isol::blk

#endif // ISOL_BLK_QOS_COST_HH
