#include "workload/job.hh"

#include <algorithm>

#include "common/logging.hh"

namespace isol::workload
{

/** One outstanding I/O slot (recycled between requests). */
struct FioJob::Inflight
{
    FioJob *job = nullptr;
    blk::Request req;
    SimTime issue_start = 0;
};

FioJob::FioJob(sim::Simulator &sim, JobSpec spec, blk::BlockDevice &bdev,
               host::CpuCore &core, host::EngineConfig engine,
               cgroup::CgroupTree &tree, cgroup::Cgroup *cg,
               host::TaskId task)
    : sim_(sim), spec_(std::move(spec)), bdev_(bdev), core_(core),
      engine_(engine), tree_(tree), cg_(cg), task_(task),
      rng_(spec_.seed ^ (static_cast<uint64_t>(task) << 32)),
      series_(spec.stats_bin > 0 ? spec.stats_bin : msToNs(100))
{
    if (spec_.block_size == 0)
        fatal("FioJob: block_size must be > 0");
    if (spec_.iodepth == 0)
        fatal("FioJob: iodepth must be > 0");
    blocks_ = std::max<uint64_t>(
        bdev_.ssd().config().user_capacity / spec_.block_size, 1);
    if (spec_.read_fraction < 0.0 || spec_.read_fraction > 1.0)
        fatal("FioJob: read_fraction must be within [0, 1]");
    // Jobs configured with op=write default to an all-write mix.
    if (spec_.op == OpType::kWrite && spec_.read_fraction == 1.0)
        spec_.read_fraction = 0.0;

    depth_limit_ = spec_.qd_ramp_start > 0
                       ? std::min(spec_.qd_ramp_start, spec_.iodepth)
                       : spec_.iodepth;
}

FioJob::~FioJob()
{
    if (pace_event_ != sim::kInvalidEventId)
        sim_.cancel(pace_event_);
    if (burst_event_ != sim::kInvalidEventId)
        sim_.cancel(burst_event_);
    if (ramp_event_ != sim::kInvalidEventId)
        sim_.cancel(ramp_event_);
}

void
FioJob::schedule()
{
    sim_.at(spec_.start_time, [this] { start(); });
    sim_.at(spec_.start_time + spec_.duration, [this] { stop(); });
}

void
FioJob::setMeasureWindow(SimTime from, SimTime to)
{
    measure_from_ = from;
    measure_to_ = to;
}

void
FioJob::start()
{
    if (running_)
        return;
    running_ = true;
    started_at_ = sim_.now();
    pace_vtime_ = sim_.now(); // no rate credit from before the start
    if (cg_ != nullptr && !attached_) {
        tree_.attachProcess(*cg_);
        attached_ = true;
    }
    bdev_.registerSubmitter();
    if (spec_.burst_on > 0 && spec_.burst_off > 0) {
        burst_paused_ = false;
        burst_event_ = sim_.after(spec_.burst_on, [this] { burstToggle(); });
    }
    if (depth_limit_ < spec_.iodepth && spec_.qd_ramp_interval > 0) {
        ramp_event_ =
            sim_.after(spec_.qd_ramp_interval, [this] { rampDepth(); });
    }
    fillQueue();
}

void
FioJob::stop()
{
    if (running_)
        bdev_.unregisterSubmitter();
    running_ = false;
    if (pace_event_ != sim::kInvalidEventId) {
        sim_.cancel(pace_event_);
        pace_event_ = sim::kInvalidEventId;
    }
    if (burst_event_ != sim::kInvalidEventId) {
        sim_.cancel(burst_event_);
        burst_event_ = sim::kInvalidEventId;
    }
    if (ramp_event_ != sim::kInvalidEventId) {
        sim_.cancel(ramp_event_);
        ramp_event_ = sim::kInvalidEventId;
    }
    // The "process" exits once outstanding I/O drains.
    if (inflight_ == 0 && attached_) {
        tree_.detachProcess(*cg_);
        attached_ = false;
    }
}

void
FioJob::burstToggle()
{
    burst_event_ = sim::kInvalidEventId;
    if (!running_)
        return;
    burst_paused_ = !burst_paused_;
    SimTime next = burst_paused_ ? spec_.burst_off : spec_.burst_on;
    burst_event_ = sim_.after(next, [this] { burstToggle(); });
    if (!burst_paused_)
        fillQueue();
}

void
FioJob::rampDepth()
{
    ramp_event_ = sim::kInvalidEventId;
    if (!running_)
        return;
    depth_limit_ = std::min(depth_limit_ * 2, spec_.iodepth);
    if (depth_limit_ < spec_.iodepth) {
        ramp_event_ =
            sim_.after(spec_.qd_ramp_interval, [this] { rampDepth(); });
    }
    fillQueue();
}

void
FioJob::fillQueue()
{
    while (inflight_ < depth_limit_ && running_ && !burst_paused_ &&
           !fsync_draining_) {
        // Rate pacing via a virtual clock, like fio: credit accrued
        // while the job was throttled by I/O control is capped at one
        // short slice, so the job cannot later burst far above its
        // configured rate to "catch up".
        if (spec_.rate_bps > 0) {
            constexpr SimTime kCreditCap = msToNs(50);
            SimTime earn = static_cast<SimTime>(
                static_cast<double>(spec_.block_size) /
                static_cast<double>(spec_.rate_bps) * 1e9);
            SimTime base = std::max(pace_vtime_, sim_.now() - kCreditCap);
            if (base + earn > sim_.now()) {
                if (pace_event_ == sim::kInvalidEventId) {
                    pace_event_ = sim_.at(
                        std::max(base + earn, sim_.now() + 1000),
                        [this] {
                            pace_event_ = sim::kInvalidEventId;
                            fillQueue();
                        });
                }
                return;
            }
            pace_vtime_ = base + earn;
        }
        tryIssue();
    }
}

void
FioJob::tryIssue()
{
    ++inflight_;
    issued_bytes_ += spec_.block_size;
    // Latency is measured fio-style: from the moment the job decides to
    // issue, so submission CPU time and CPU queueing are included.
    SimTime issue_start = sim_.now();
    // Charge the submission CPU; the request enters the block layer when
    // the work item retires.
    SimTime cost = engine_.submitCost(spec_.iodepth) +
                   bdev_.perIoCpuExtra();
    core_.charge(task_, cost, [this, issue_start] {
        issueNow(issue_start);
    });
}

void
FioJob::issueNow(SimTime issue_start)
{
    Inflight *slot = slots_.acquire();
    slot->job = this;

    // Spin on the scheduler lock (MQ-DL/BFQ): the wait burns this
    // thread's CPU in parallel with the request waiting for the lock.
    // Nothing waits on the spin's end, so it is booked without an event.
    SimTime spin = bdev_.submitSpinTime();
    if (spin > 0)
        core_.book(task_, spin);

    slot->issue_start = issue_start;
    blk::Request &req = slot->req;
    req.op = pickOp();
    req.offset = pickOffset();
    req.size = spec_.block_size;
    req.cg = cg_;
    req.sequential = spec_.pattern == AccessPattern::kSequential;
    req.on_complete = [this, slot](blk::Request *) {
        onBlkComplete(slot);
    };
    bdev_.submit(&req);
}

uint64_t
FioJob::pickOffset()
{
    uint64_t block = spec_.pattern == AccessPattern::kSequential
                         ? seq_cursor_++ % blocks_
                         : rng_.below(blocks_);
    return block * spec_.block_size;
}

OpType
FioJob::pickOp()
{
    if (spec_.read_fraction >= 1.0)
        return OpType::kRead;
    if (spec_.read_fraction <= 0.0)
        return OpType::kWrite;
    return rng_.chance(spec_.read_fraction) ? OpType::kRead
                                            : OpType::kWrite;
}

void
FioJob::onBlkComplete(Inflight *slot)
{
    // Completion (reap) CPU work, then account and refill. A slow-drain
    // adversary adds its per-I/O stall here, so completions back up on
    // the core while the device queue stays loaded.
    core_.charge(task_,
                 engine_.completeCost(spec_.iodepth) + spec_.reap_stall,
                 [this, slot] { finishIo(slot); });
}

void
FioJob::finishIo(Inflight *slot)
{
    SimTime now = sim_.now();
    SimTime lat = now - slot->issue_start;
    uint32_t size = slot->req.size;
    bool was_write = slot->req.op == OpType::kWrite;
    slots_.release(slot);
    if (inflight_ == 0)
        panic("FioJob: inflight underflow");
    --inflight_;

    // fsync barrier: every `fsync_every` completed writes, stop issuing
    // until the queue drains fully (flush semantics).
    if (spec_.fsync_every > 0 && was_write &&
        ++writes_since_flush_ >= spec_.fsync_every) {
        writes_since_flush_ = 0;
        fsync_draining_ = true;
    }
    if (fsync_draining_ && inflight_ == 0) {
        fsync_draining_ = false;
        ++flushes_;
    }

    ++total_ios_;
    series_.add(now, size);
    if (now >= measure_from_ && now < measure_to_) {
        latency_.record(lat);
        window_bytes_ += size;
        ++window_ios_;
    }

    if (running_) {
        fillQueue();
    } else if (inflight_ == 0 && attached_) {
        tree_.detachProcess(*cg_);
        attached_ = false;
    }
}

double
FioJob::windowBandwidth() const
{
    SimTime to = std::min(measure_to_, sim_.now());
    if (to <= measure_from_)
        return 0.0;
    return static_cast<double>(window_bytes_) / nsToSec(to - measure_from_);
}

} // namespace isol::workload
