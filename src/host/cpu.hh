/**
 * @file
 * Host CPU model.
 *
 * A CpuCore executes work items FIFO; every I/O submission and completion
 * charges CPU time here. This makes the paper's D1 effects — CPU
 * saturation at ~16 LC-apps per core, per-knob cycle overheads, latency
 * inflation past saturation — emergent queueing behaviour instead of
 * hard-coded outcomes.
 *
 * Context switches are counted when consecutive work items belong to
 * different owners (tasks), mirroring the paper's `fio`-reported context
 * switches per I/O.
 */

#ifndef ISOL_HOST_CPU_HH
#define ISOL_HOST_CPU_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/fifo_server.hh"
#include "sim/simulator.hh"

namespace isol::host
{

/** Identifies the task a work item belongs to (for context switches). */
using TaskId = uint32_t;

/** Owner id used for kernel work not attributable to a task. */
constexpr TaskId kKernelTask = UINT32_MAX;

/**
 * One logical CPU core: a sim::FifoServer of work items that also counts
 * owner transitions.
 */
class CpuCore
{
  public:
    CpuCore(sim::Simulator &sim, uint32_t id) : server_(sim), id_(id) {}

    CpuCore(const CpuCore &) = delete;
    CpuCore &operator=(const CpuCore &) = delete;

    uint32_t id() const { return id_; }

    /**
     * Occupy the core with `duration` ns of work for `owner` without
     * scheduling an event, for work nothing waits on (a submitter's lock
     * spin). Accounts busy time, the work item and the context switch
     * exactly as `charge` does. Returns the retire time.
     */
    SimTime
    book(TaskId owner, SimTime duration)
    {
        noteWork(owner, duration);
        return server_.book(duration);
    }

    /**
     * Enqueue `duration` ns of CPU work for `owner`; `done` fires when the
     * work retires. Returns the retire time.
     */
    template <typename F>
    SimTime
    charge(TaskId owner, SimTime duration, F &&done)
    {
        noteWork(owner, duration);
        return server_.enqueue(duration, std::forward<F>(done));
    }

    /** Time at which currently queued work drains. */
    SimTime busyUntil() const { return server_.busyUntil(); }

    /** Queueing delay a work item enqueued now would see. */
    SimTime backlog() const { return server_.backlog(); }

    /** Cumulative busy time. */
    SimTime busyNs() const { return server_.busyNs(); }

    /** Work items executed (including queued). */
    uint64_t workItems() const { return server_.jobs(); }

    /** Owner-transition count (proxy for context switches). */
    uint64_t contextSwitches() const { return context_switches_; }

  private:
    void
    noteWork(TaskId owner, SimTime duration)
    {
        if (duration < 0)
            panic("CpuCore: negative duration");
        if (owner != last_owner_) {
            ++context_switches_;
            last_owner_ = owner;
        }
    }

    sim::FifoServer server_;
    uint32_t id_;
    uint64_t context_switches_ = 0;
    TaskId last_owner_ = kKernelTask;
};

/**
 * A set of cores with simple static placement: tasks are assigned to the
 * least-loaded core at creation time (ties broken by index), mimicking a
 * pinned-thread fio setup.
 */
class CpuSet
{
  public:
    CpuSet(sim::Simulator &sim, uint32_t num_cores)
    {
        if (num_cores == 0)
            fatal("CpuSet: need at least one core");
        cores_.reserve(num_cores);
        for (uint32_t i = 0; i < num_cores; ++i)
            cores_.push_back(std::make_unique<CpuCore>(sim, i));
    }

    uint32_t numCores() const { return static_cast<uint32_t>(cores_.size()); }

    CpuCore &core(uint32_t i) { return *cores_.at(i); }
    const CpuCore &core(uint32_t i) const { return *cores_.at(i); }

    /** Round-robin task placement (deterministic). */
    CpuCore &
    assign()
    {
        CpuCore &picked = *cores_[next_];
        next_ = (next_ + 1) % cores_.size();
        return picked;
    }

    /** Sum of busy ns over all cores. */
    SimTime
    totalBusyNs() const
    {
        SimTime total = 0;
        for (const auto &core : cores_)
            total += core->busyNs();
        return total;
    }

    /** Sum of context switches over all cores. */
    uint64_t
    totalContextSwitches() const
    {
        uint64_t total = 0;
        for (const auto &core : cores_)
            total += core->contextSwitches();
        return total;
    }

  private:
    std::vector<std::unique_ptr<CpuCore>> cores_;
    size_t next_ = 0;
};

} // namespace isol::host

#endif // ISOL_HOST_CPU_HH
