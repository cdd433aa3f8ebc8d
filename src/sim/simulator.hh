/**
 * @file
 * The Simulator owns the clock and the event queue and provides the
 * run-loop plus relative-time scheduling conveniences.
 */

#ifndef ISOL_SIM_SIMULATOR_HH
#define ISOL_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace isol::sim
{

/**
 * Deterministic single-threaded discrete-event simulator.
 *
 * Components hold a Simulator reference and schedule callbacks either at
 * absolute times (`at`) or relative delays (`after`). The driver calls
 * runUntil()/runAll() to advance the simulation.
 */
class Simulator
{
  public:
    using Callback = EventQueue::Callback;

    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time (ns). */
    SimTime now() const { return now_; }

    /** Total events executed so far (for performance reporting). */
    uint64_t eventsExecuted() const { return events_executed_; }

    /** High-water mark of pending events (for performance reporting). */
    size_t peakQueueDepth() const { return queue_.peakDepth(); }

    /**
     * Schedule at an absolute time; must not be in the past. `fn` is
     * constructed in place in the queue (see EventQueue::schedule).
     */
    template <typename F>
    EventId
    at(SimTime when, F &&fn)
    {
        if (when < now_)
            panic("Simulator::at: scheduling into the past");
        return queue_.schedule(when, std::forward<F>(fn));
    }

    /** Schedule after a non-negative relative delay. */
    template <typename F>
    EventId
    after(SimTime delay, F &&fn)
    {
        if (delay < 0)
            panic("Simulator::after: negative delay");
        return queue_.schedule(now_ + delay, std::forward<F>(fn));
    }

    /** Cancel a pending event. Returns true if it had not yet fired. */
    bool cancel(EventId id) { return queue_.cancel(id); }

    /** True when no further events are pending. */
    bool idle() const { return queue_.empty(); }

    /**
     * Run events with time <= `deadline`; afterwards now() == deadline
     * (even if the queue drained earlier), so periodic statistics windows
     * line up across runs.
     */
    void
    runUntil(SimTime deadline)
    {
        while (fireNext(deadline)) {
        }
        if (deadline > now_)
            now_ = deadline;
    }

    /**
     * Run until the event queue is empty. A non-zero `max_events` caps
     * how many events this call may execute: self-rescheduling event
     * storms (e.g. a mis-wired periodic timer) then fail loudly through
     * fatal() instead of hanging the process.
     */
    void
    runAll(uint64_t max_events = 0)
    {
        uint64_t executed = 0;
        while (!queue_.empty()) {
            if (max_events != 0 && executed >= max_events) {
                fatal(strCat("Simulator::runAll: executed ", executed,
                             " events without draining the queue — "
                             "event storm? (limit ", max_events, ")"));
            }
            fireNext(kSimTimeMax);
            ++executed;
        }
    }

    /** Execute exactly one event; returns false if none were pending. */
    bool step() { return fireNext(kSimTimeMax); }

  private:
    /**
     * Pop the earliest event if it is due at or before `deadline`,
     * advance the clock to it and run it; false when none is due. The
     * callback is local to this call, so its captures are destroyed
     * before the next event fires.
     */
    bool
    fireNext(SimTime deadline)
    {
        SimTime when = 0;
        Callback cb;
        if (!queue_.popIfAtOrBefore(deadline, when, cb))
            return false;
        if (when < now_)
            panic("Simulator: time went backwards");
        now_ = when;
        ++events_executed_;
        cb();
        return true;
    }

    EventQueue queue_;
    SimTime now_ = 0;
    uint64_t events_executed_ = 0;
};

/**
 * Repeating timer helper: fires a callback every `period` ns until
 * stopped. Used for rq-qos window processing (io.latency / io.cost) and
 * statistics sampling.
 */
class PeriodicTimer
{
  public:
    /**
     * @param sim simulator driving the timer
     * @param period interval between firings (must be > 0)
     * @param cb invoked once per period
     */
    PeriodicTimer(Simulator &sim, SimTime period, SmallCallback cb)
        : sim_(sim), period_(period), cb_(std::move(cb))
    {
        if (period_ <= 0)
            panic("PeriodicTimer: period must be positive");
    }

    ~PeriodicTimer() { stop(); }

    PeriodicTimer(const PeriodicTimer &) = delete;
    PeriodicTimer &operator=(const PeriodicTimer &) = delete;

    /** Arm the timer; first firing after one period. */
    void
    start()
    {
        if (running_)
            return;
        running_ = true;
        armNext();
    }

    /** Disarm; pending firing is cancelled. */
    void
    stop()
    {
        running_ = false;
        if (pending_ != kInvalidEventId) {
            sim_.cancel(pending_);
            pending_ = kInvalidEventId;
        }
    }

    bool running() const { return running_; }

  private:
    void
    armNext()
    {
        pending_ = sim_.after(period_, [this] {
            pending_ = kInvalidEventId;
            if (!running_)
                return;
            cb_();
            if (running_)
                armNext();
        });
    }

    Simulator &sim_;
    SimTime period_;
    SmallCallback cb_;
    bool running_ = false;
    EventId pending_ = kInvalidEventId;
};

} // namespace isol::sim

#endif // ISOL_SIM_SIMULATOR_HH
