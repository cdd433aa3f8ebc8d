/**
 * @file
 * Serial FIFO resource server — the building block for flash dies, flash
 * channels, and the device's host link.
 *
 * Because service is strictly FIFO and service times are known at enqueue
 * time, the server needs no explicit queue: it tracks the time at which it
 * drains (`busyUntil`) and schedules each job's completion directly. This
 * keeps the event count at one event per job.
 */

#ifndef ISOL_SSD_RESOURCE_HH
#define ISOL_SSD_RESOURCE_HH

#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/simulator.hh"

namespace isol::ssd
{

/**
 * A single-server FIFO queue with deterministic service order.
 */
class FifoServer
{
  public:
    explicit FifoServer(sim::Simulator &sim) : sim_(sim) {}

    FifoServer(const FifoServer &) = delete;
    FifoServer &operator=(const FifoServer &) = delete;

    /**
     * Enqueue a job taking `service` ns; `done` fires when it completes.
     * Returns the completion time.
     */
    SimTime
    enqueue(SimTime service, sim::SmallCallback done)
    {
        if (service < 0)
            panic("FifoServer: negative service time");
        SimTime start = std::max(sim_.now(), busy_until_);
        busy_until_ = start + service;
        busy_ns_ += service;
        ++jobs_;
        sim_.at(busy_until_, std::move(done));
        return busy_until_;
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
    sim::Simulator &sim_;
    SimTime busy_until_ = 0;
    SimTime busy_ns_ = 0;
    uint64_t jobs_ = 0;
};

} // namespace isol::ssd

#endif // ISOL_SSD_RESOURCE_HH
