/**
 * @file
 * Serial FIFO resource server — the building block for flash channels,
 * the SSD's host link, the block layer's dispatch lock and host CPU
 * cores (host::CpuCore).
 *
 * Because service is strictly FIFO and service times are known at enqueue
 * time, the server needs no explicit queue: it tracks the time at which it
 * drains (`busyUntil`) and schedules each job's completion directly. This
 * keeps the event count at one event per job — or none, when the caller
 * folds the job's end into a later event it schedules anyway (`book`):
 * the host link's end plus the controller latency is one completion
 * event, not a link event and a delay event.
 */

#ifndef ISOL_SIM_FIFO_SERVER_HH
#define ISOL_SIM_FIFO_SERVER_HH

#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/simulator.hh"

namespace isol::sim
{

/**
 * A single-server FIFO queue with deterministic service order.
 */
class FifoServer
{
  public:
    explicit FifoServer(Simulator &sim) : sim_(sim) {}

    FifoServer(const FifoServer &) = delete;
    FifoServer &operator=(const FifoServer &) = delete;

    /**
     * Book a job taking `service` ns without scheduling an event: the
     * server is occupied exactly as by `enqueue`. Returns the completion
     * time, for the caller to schedule whatever follows.
     */
    SimTime
    book(SimTime service)
    {
        if (service < 0)
            panic("FifoServer: negative service time");
        SimTime start = std::max(sim_.now(), busy_until_);
        busy_until_ = start + service;
        busy_ns_ += service;
        ++jobs_;
        return busy_until_;
    }

    /**
     * Enqueue a job taking `service` ns; `done` fires when it completes
     * (constructed in place, as by Simulator::at). Returns the
     * completion time.
     */
    template <typename F>
    SimTime
    enqueue(SimTime service, F &&done)
    {
        SimTime end = book(service);
        sim_.at(end, std::forward<F>(done));
        return end;
    }

    /** Time at which the server drains (may be in the past when idle). */
    SimTime busyUntil() const { return busy_until_; }

    /** Whether a job enqueued now would have to wait. */
    bool busy() const { return busy_until_ > sim_.now(); }

    /** Queueing delay a job enqueued now would experience. */
    SimTime
    backlog() const
    {
        return busy_until_ > sim_.now() ? busy_until_ - sim_.now() : 0;
    }

    /** Cumulative busy time (for utilisation statistics). */
    SimTime busyNs() const { return busy_ns_; }

    /** Total jobs served (including in flight). */
    uint64_t jobs() const { return jobs_; }

  private:
    Simulator &sim_;
    SimTime busy_until_ = 0;
    SimTime busy_ns_ = 0;
    uint64_t jobs_ = 0;
};

} // namespace isol::sim

#endif // ISOL_SIM_FIFO_SERVER_HH
