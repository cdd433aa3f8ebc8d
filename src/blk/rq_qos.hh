/**
 * @file
 * RqQos: the interface every cgroup I/O-control gate implements (io.max,
 * io.latency, io.cost), mirroring the kernel's `struct rq_qos_ops`:
 *
 *   rq_qos_ops   RqQos
 *   throttle     submit()       pass the request downstream or hold it
 *   done         onComplete()   the request left the device
 *   requeue      onRequeue()    a timed-out attempt is about to retry
 *   exit         ~RqQos()       detach from the device and the tree
 *
 * plus two simulator hooks: start() arms periodic controllers and
 * finalChecks() runs end-of-run conservation checks. The base owns what
 * every gate shares: the pipeline context, the downstream continuation,
 * the throttled/bookkeeping counters, the invariant checker and the
 * cgroup-removal listener (the blkcg policy's offline callback), which
 * forwards to onCgroupRemoved().
 */

#ifndef ISOL_BLK_RQ_QOS_HH
#define ISOL_BLK_RQ_QOS_HH

#include "blk/request.hh"
#include "sim/simulator.hh"

namespace isol::sim
{
class InvariantChecker;
} // namespace isol::sim

namespace isol::blk
{

/** Which rq-qos gate a block device runs (at most one, see DESIGN.md). */
enum class QosType : uint8_t
{
    kNone, //!< no gate
    kIoMax, //!< io.max (blk-throttle)
    kIoLatency, //!< io.latency (blk-iolatency)
    kIoCost, //!< io.cost (blk-iocost)
};

/**
 * Abstract rq-qos gate between submission and the device's tags.
 */
class RqQos
{
  public:
    /** Passes a request deeper into the pipeline. */
    using PassFn = sim::SmallFunction<void(Request *)>;

    /**
     * @param sim simulator
     * @param dev device id used to look up the cgroup knobs
     * @param tree cgroup hierarchy (knobs, ancestor walks, removals)
     * @param pass downstream continuation
     */
    RqQos(sim::Simulator &sim, cgroup::DeviceId dev,
          cgroup::CgroupTree &tree, PassFn pass);
    RqQos(const RqQos &) = delete;
    RqQos &operator=(const RqQos &) = delete;
    virtual ~RqQos();

    /** Throttle: pass `req` downstream now, or queue it until later. */
    virtual void submit(Request *req) = 0;

    /** Done: `req` completed (or failed) on the device. */
    virtual void onComplete(Request *req) { (void)req; }

    /** Requeue: an aborted attempt of `req` is about to be retried. */
    virtual void onRequeue(Request *req) { (void)req; }

    /** Arm periodic controllers; called once before the run. */
    virtual void start() {}

    /** End-of-run conservation checks (invariant checking on only). */
    virtual void finalChecks() {}

    /** Requests currently held back. */
    size_t throttled() const { return throttled_; }

    /** Per-cgroup bookkeeping work: state visits in scans, share
     *  recomputes and chain walks. Deterministic, so benches print it. */
    uint64_t bookkeepingOps() const { return bookkeeping_ops_; }

    /** Opt-in runtime invariant checking (nullptr = off). */
    void setInvariants(sim::InvariantChecker *inv) { inv_ = inv; }

  protected:
    /** `cg` is being removed: drop its state; fatal() while the gate
     *  still holds I/O of it. */
    virtual void onCgroupRemoved(cgroup::Cgroup &cg) = 0;

    sim::Simulator &sim_;
    cgroup::DeviceId dev_;
    cgroup::CgroupTree &tree_;
    PassFn pass_;
    sim::InvariantChecker *inv_ = nullptr;
    size_t throttled_ = 0;
    uint64_t bookkeeping_ops_ = 0;

  private:
    size_t removal_token_ = 0;
};

} // namespace isol::blk

#endif // ISOL_BLK_RQ_QOS_HH
