#include "blk/block_device.hh"

#include "blk/kyber.hh"
#include "blk/mq_deadline.hh"
#include "common/logging.hh"

namespace isol::blk
{

namespace
{
// BFQ's scheduler-lock hold per acquisition (mq-deadline's is
// BlockDeviceConfig::mq_lock_hold): its bfqd->lock critical sections
// are longer.
constexpr SimTime kBfqLockHold = nsToNs(2750);

// Submit-side per-I/O CPU each elevator or gate adds to the issuing
// task: the insert path under the scheduler lock (dd_insert_requests,
// bfq_insert_requests), Kyber's per-cpu token ops (no big lock), and
// the rq-qos throttle hooks (blk_throtl_bio, blkcg_iolatency_throttle,
// ioc_rqos_throttle).
constexpr SimTime kMqCpu = nsToNs(4600);
constexpr SimTime kBfqCpu = nsToNs(12000);
constexpr SimTime kKyberCpu = nsToNs(600);
constexpr SimTime kIoMaxCpu = nsToNs(450);
constexpr SimTime kIoLatCpu = nsToNs(200);
constexpr SimTime kIoCostCpu = nsToNs(300);
} // namespace

BlockDevice::BlockDevice(sim::Simulator &sim, cgroup::CgroupTree &tree,
                         ssd::SsdDevice &ssd, BlockDeviceConfig cfg)
    : sim_(sim), tree_(tree), ssd_(ssd), cfg_(cfg), inv_(cfg.invariants)
{
    switch (cfg_.elevator) {
      case ElevatorType::kNone:
        elevator_ = std::make_unique<NoneElevator>();
        break;
      case ElevatorType::kMqDeadline:
        elevator_ = std::make_unique<MqDeadline>(sim_);
        dispatch_cost_ = cfg_.mq_lock_hold;
        cpu_extra_ = kMqCpu;
        break;
      case ElevatorType::kBfq:
        elevator_ = std::make_unique<Bfq>(sim_, tree_, cfg_.bfq_params);
        dispatch_cost_ = kBfqLockHold;
        cpu_extra_ = kBfqCpu;
        break;
      case ElevatorType::kKyber:
        // Per-cpu token pools, no dispatch lock.
        elevator_ = std::make_unique<Kyber>(sim_);
        cpu_extra_ = kKyberCpu;
        break;
    }
    elevator_->setKick([this] { pumpDispatch(); });
    if (dispatch_cost_ > 0)
        dispatch_lock_ = std::make_unique<sim::FifoServer>(sim_);

    auto enter_tags = [this](Request *req) { enterTags(req); };
    switch (cfg_.qos) {
      case QosType::kNone:
        return;
      case QosType::kIoMax:
        qos_ = std::make_unique<IoMaxGate>(sim_, cfg_.dev_id, tree_,
                                           enter_tags);
        cpu_extra_ += kIoMaxCpu;
        break;
      case QosType::kIoLatency:
        qos_ = std::make_unique<IoLatencyGate>(
            sim_, cfg_.dev_id, tree_, enter_tags, cfg_.iolat_params);
        cpu_extra_ += kIoLatCpu;
        break;
      case QosType::kIoCost:
        qos_ = std::make_unique<IoCostGate>(
            sim_, cfg_.dev_id, tree_, enter_tags);
        cpu_extra_ += kIoCostCpu;
        break;
    }
    qos_->setInvariants(inv_);
}

uint64_t
BlockDevice::gateBookkeepingOps() const
{
    return elevator_->bookkeepingOps() +
           (qos_ ? qos_->bookkeepingOps() : 0);
}

void
BlockDevice::finalInvariantChecks()
{
    if (inv_ != nullptr && qos_)
        qos_->finalChecks();
}

void
BlockDevice::start()
{
    if (qos_)
        qos_->start();
}

SimTime
BlockDevice::submitSpinTime() const
{
    if (!dispatch_lock_)
        return 0;
    // When the lock is held right now (it almost always is at
    // saturation), a submitter expects to spin behind ~0.6 of the other
    // live contenders; when the lock is free, acquisition is immediate.
    if (!dispatch_lock_->busy())
        return 0;
    uint32_t others = submitters_ > 0 ? submitters_ - 1 : 0;
    return static_cast<SimTime>(0.6 * static_cast<double>(others) *
                                static_cast<double>(dispatch_cost_));
}

void
BlockDevice::submit(Request *req)
{
    if (req->size == 0)
        fatal("BlockDevice::submit: zero-sized request");
    req->blk_enter_time = sim_.now();
    req->prio = req->cg != nullptr ? req->cg->prioClass()
                                   : cgroup::PrioClass::kNoChange;
    ++submitted_;
    if (inv_ != nullptr) {
        inv_->onSubmit(req->cg, req->cg != nullptr
                                    ? req->cg->name()
                                    : std::string("<root>"));
    }
    // Insert-side scheduler lock acquisition.
    if (dispatch_lock_) {
        dispatch_lock_->enqueue(dispatch_cost_,
                                [this, req] { afterLock(req); });
        return;
    }
    afterLock(req);
}

void
BlockDevice::afterLock(Request *req)
{
    if (qos_)
        qos_->submit(req);
    else
        enterTags(req);
}

void
BlockDevice::enterTags(Request *req)
{
    if (inflight_ >= cfg_.nr_requests) {
        tag_wait_.push_back(req);
        return;
    }
    ++inflight_;
    enterElevator(req);
}

void
BlockDevice::enterElevator(Request *req)
{
    if (inv_ != nullptr)
        inv_->onElevatorInsert(req);
    elevator_->insert(req);
    pumpDispatch();
}

void
BlockDevice::pumpDispatch()
{
    if (pumping_)
        return;
    pumping_ = true;
    while (true) {
        if (dispatch_lock_ && dispatch_pending_ > 0)
            break; // one request at a time through the dispatch lock
        Request *req = elevator_->selectNext();
        if (req == nullptr)
            break;
        if (inv_ != nullptr)
            inv_->onElevatorDispatch(req);
        if (dispatch_lock_) {
            ++dispatch_pending_;
            dispatch_lock_->enqueue(dispatch_cost_, [this, req] {
                --dispatch_pending_;
                issueToDevice(req);
                pumpDispatch();
            });
        } else {
            issueToDevice(req);
        }
    }
    pumping_ = false;
}

void
BlockDevice::issueToDevice(Request *req)
{
    req->dispatch_time = sim_.now();
    ssd_.submit(req->op, req->offset, req->size,
                [this, req] { finishRequest(req); });
}

void
BlockDevice::finishRequest(Request *req)
{
    ++completed_;
    if (inv_ != nullptr)
        inv_->onComplete(req->cg);
    if (qos_)
        qos_->onComplete(req);
    elevator_->onComplete(req);

    // Release the tag; admit a waiter if any.
    if (inflight_ == 0)
        panic("BlockDevice: tag underflow");
    --inflight_;
    if (!tag_wait_.empty()) {
        Request *next = tag_wait_.front();
        tag_wait_.pop_front();
        ++inflight_;
        enterElevator(next);
    }

    req->on_complete(req);
}

} // namespace isol::blk
