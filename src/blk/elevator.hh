/**
 * @file
 * Elevator (I/O scheduler) interface and the trivial "none" elevator.
 *
 * The BlockDevice drives elevators with a pull model: it calls
 * selectNext() whenever it can dispatch. An elevator may hold back
 * requests (BFQ slice idling, MQ-DL priority starvation) and later call
 * the kick callback to restart dispatching.
 */

#ifndef ISOL_BLK_ELEVATOR_HH
#define ISOL_BLK_ELEVATOR_HH

#include "blk/request.hh"
#include "common/ring.hh"
#include "common/types.hh"
#include "sim/small_function.hh"

namespace isol::blk
{

/**
 * Abstract I/O scheduler.
 */
class Elevator
{
  public:
    virtual ~Elevator() = default;

    /** Queue a request for dispatch. */
    virtual void insert(Request *req) = 0;

    /**
     * Pick the next request to dispatch, or nullptr if none should be
     * dispatched right now (empty, or intentionally idling).
     */
    virtual Request *selectNext() = 0;

    /** Notification that a previously dispatched request completed. */
    virtual void onComplete(Request *req) { (void)req; }

    /** True when no requests are queued inside the elevator. */
    virtual bool empty() const = 0;

    /** Number of queued (not yet dispatched) requests. */
    virtual size_t queued() const = 0;

    /**
     * Per-cgroup bookkeeping work performed so far (state scans, weight
     * resolution). Deterministic; benches report it to make scheduler
     * scale cliffs visible. Elevators without per-cgroup state report 0.
     */
    virtual uint64_t bookkeepingOps() const { return 0; }

    /**
     * Register the callback the elevator uses to restart dispatching
     * after holding back requests (e.g. when an idle window expires).
     */
    void setKick(sim::SmallCallback kick) { kick_ = std::move(kick); }

  protected:
    /** Restart the device dispatch loop. */
    void
    kick()
    {
        if (kick_)
            kick_();
    }

  private:
    sim::SmallCallback kick_;
};

/**
 * The "none" elevator: plain FIFO, no reordering, no added dispatch cost
 * (multi-queue direct dispatch).
 */
class NoneElevator : public Elevator
{
  public:
    void insert(Request *req) override { fifo_.push_back(req); }

    Request *
    selectNext() override
    {
        if (fifo_.empty())
            return nullptr;
        Request *req = fifo_.front();
        fifo_.pop_front();
        return req;
    }

    bool empty() const override { return fifo_.empty(); }
    size_t queued() const override { return fifo_.size(); }

  private:
    common::RingDeque<Request *> fifo_;
};

} // namespace isol::blk

#endif // ISOL_BLK_ELEVATOR_HH
