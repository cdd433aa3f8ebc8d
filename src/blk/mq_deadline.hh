/**
 * @file
 * MQ-Deadline elevator model (paper §IV-B).
 *
 * Faithful to the behaviours the paper measures:
 *  - three I/O priority classes (RT > BE > IDLE) fed by io.prio.class;
 *    a lower class is only dispatched when every higher class has no
 *    request queued *or in flight* — which starves lower classes to
 *    near-zero bandwidth while a higher-priority app keeps I/O
 *    outstanding (the paper's Fig. 2b);
 *  - starvation control: a lower-class request whose age exceeds
 *    `prio_aging_expire` is served ahead of higher classes;
 *  - per-direction FIFOs with read/write expiry deadlines and
 *    fifo_batch-sized batches, writes_starved limiting read preference;
 *  - a per-device serialized dispatch critical section (the single
 *    dispatch lock) is modelled by BlockDevice via dispatchCost().
 */

#ifndef ISOL_BLK_MQ_DEADLINE_HH
#define ISOL_BLK_MQ_DEADLINE_HH

#include <array>

#include "blk/elevator.hh"
#include "common/ring.hh"
#include "sim/simulator.hh"

namespace isol::blk
{

/** Tunables mirroring /sys/block/<dev>/queue/iosched for mq-deadline. */
struct MqDeadlineParams
{
    SimTime read_expire = msToNs(500);
    SimTime write_expire = secToNs(int64_t{5});
    int fifo_batch = 16;
    int writes_starved = 2;
    /** Aging promotion for lower priority classes (kernel default 10 s). */
    SimTime prio_aging_expire = secToNs(int64_t{10});
};

/**
 * mq-deadline scheduler.
 */
class MqDeadline : public Elevator
{
  public:
    explicit MqDeadline(sim::Simulator &sim, MqDeadlineParams params = {});

    void insert(Request *req) override;
    Request *selectNext() override;
    void onComplete(Request *req) override;
    bool empty() const override;
    size_t queued() const override;

  private:
    /** Internal priority levels in dispatch order. */
    enum Level : int { kRt = 0, kBe = 1, kIdle = 2, kNumLevels = 3 };

    struct Pending
    {
        Request *req;
        SimTime arrival;
    };

    struct DirQueue
    {
        common::RingDeque<Pending> fifo;
    };

    struct ClassQueues
    {
        DirQueue read;
        DirQueue write;
        int batch_left = 0;
        OpType batch_dir = OpType::kRead;
        int starved = 0;
        uint32_t inflight = 0; //!< dispatched, not yet completed

        bool
        hasQueued() const
        {
            return !read.fifo.empty() || !write.fifo.empty();
        }
    };

    static Level levelOf(const Request &req);

    /** Oldest pending request age within a class, or -1 when empty. */
    SimTime oldestAge(const ClassQueues &cls) const;

    Request *popFrom(ClassQueues &cls);
    Request *popDir(ClassQueues &cls, OpType dir);

    sim::Simulator &sim_;
    MqDeadlineParams params_;
    std::array<ClassQueues, kNumLevels> classes_;
    size_t queued_ = 0;
};

} // namespace isol::blk

#endif // ISOL_BLK_MQ_DEADLINE_HH
