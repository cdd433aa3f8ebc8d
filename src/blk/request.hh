/**
 * @file
 * Block-layer request type and related enums.
 */

#ifndef ISOL_BLK_REQUEST_HH
#define ISOL_BLK_REQUEST_HH

#include <cstdint>

#include "cgroup/cgroup.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"
#include "sim/small_function.hh"

namespace isol::blk
{

/** Which elevator (I/O scheduler) a block device uses. */
enum class ElevatorType : uint8_t
{
    kNone, //!< multi-queue direct dispatch (Linux "none")
    kMqDeadline, //!< mq-deadline
    kBfq, //!< BFQ
    kKyber, //!< Kyber (extension; no cgroup knob, see blk/kyber.hh)
};

/**
 * One block I/O request flowing through the cgroup-controlled pipeline:
 * io.max throttle -> io.cost -> io.latency -> tags -> elevator -> device.
 */
struct Request
{
    OpType op = OpType::kRead;
    uint64_t offset = 0;
    uint32_t size = 0;

    /** Issuing cgroup (must not be null when any knob is active). */
    cgroup::Cgroup *cg = nullptr;

    /** True when the issuing stream is sequential (io.cost model choice). */
    bool sequential = false;

    /** When the request entered the block layer. */
    SimTime blk_enter_time = 0;

    /** When the request was dispatched to the device. */
    SimTime dispatch_time = 0;

    /** Completion callback into the submitter. */
    sim::SmallFunction<void(Request *)> on_complete;

    /** Resolved I/O priority class (from the cgroup, at submit). */
    cgroup::PrioClass prio = cgroup::PrioClass::kNoChange;

    // Inert: nothing in the block layer reads these; they stay only
    // because perfbench's BlkReplayer still assigns them.
    uint32_t retries = 0;
    sim::EventId timeout_event = sim::kInvalidEventId;
    bool failed = false;
};

} // namespace isol::blk

#endif // ISOL_BLK_REQUEST_HH
