/**
 * @file
 * io.latency (blk-iolatency) model, following the mechanism described in
 * the paper (§IV-B) and the kernel:
 *
 *  - every 500 ms window, each cgroup with a target compares its achieved
 *    P90 completion latency against the target;
 *  - if any target is violated, every cgroup with a *higher* target (or
 *    no target: lowest priority) has its effective queue depth halved —
 *    at most once per window, down to a minimum of 1;
 *  - if no target is violated, throttled groups recover by
 *    max_nr_requests/4 per window — but only once their `use_delay`
 *    counter has drained: it increments each window the victim group sits
 *    at QD 1 while the target is still violated, and decrements on each
 *    unthrottle opportunity;
 *  - the queue-depth limit gates requests before the elevator; excess
 *    queues FIFO per cgroup and drains on completions.
 *
 * Because throttling can only halve QD once per 500 ms, full throttle-down
 * from QD 1024 takes ~10 windows (~5 s) — the paper's O10 burst finding.
 */

#ifndef ISOL_BLK_QOS_LATENCY_HH
#define ISOL_BLK_QOS_LATENCY_HH

#include <memory>
#include <vector>

#include "blk/cg_state.hh"
#include "blk/rq_qos.hh"
#include "common/ring.hh"
#include "stats/histogram.hh"

namespace isol::blk
{

/** Tunables for the io.latency mechanism. */
struct IoLatencyParams
{
    uint32_t max_nr_requests = 1024; //!< device queue depth
};

/**
 * Per-device io.latency controller.
 */
class IoLatencyGate : public RqQos
{
  public:
    IoLatencyGate(sim::Simulator &sim, cgroup::DeviceId dev,
                  cgroup::CgroupTree &tree, PassFn pass,
                  IoLatencyParams params = {});

    /** Admit or queue a request against the cgroup's QD limit. */
    void submit(Request *req) override;

    /** Completion hook: records latency and frees a QD slot. */
    void onComplete(Request *req) override;

    /** Arm the periodic window timer. */
    void start() override;

    /** Effective queue-depth limit of `cg` (max_nr_requests for a
     *  group the gate has not seen; never creates state). */
    uint32_t qdLimit(const cgroup::Cgroup *cg) const;

    /** use_delay counter of `cg` (0 for an unseen group; testing). */
    uint32_t useDelay(const cgroup::Cgroup *cg) const;

    /** Groups with live gate state (shrinks on cgroup removal). */
    size_t trackedGroups() const { return states_.size(); }

  private:
    struct CgState
    {
        const cgroup::Cgroup *cg = nullptr;
        uint32_t inflight = 0;
        uint32_t qd_limit = 0; //!< set from params at creation
        uint32_t use_delay = 0;
        stats::Histogram window_lat;
        common::RingDeque<Request *> queue;
    };

    CgState &stateFor(const cgroup::Cgroup *cg);

    void onCgroupRemoved(cgroup::Cgroup &cg) override;

    /** Window processing: check targets, throttle/unthrottle. */
    void windowTick();

    void drain(CgState &st);

    IoLatencyParams params_;
    /** Group states in a flat dense-id arena, iterated in registration
     *  order (swap-remove perturbs it deterministically); windowTick()
     *  drains queues while iterating, so the order must never depend on
     *  pointer hash values — slots are assigned by event order alone. */
    CgStateArena<CgState> states_;
    std::unique_ptr<sim::PeriodicTimer> timer_;
};

} // namespace isol::blk

#endif // ISOL_BLK_QOS_LATENCY_HH
