#include "blk/block_device.hh"

#include <algorithm>

#include "common/logging.hh"

namespace isol::blk
{

BlockDevice::BlockDevice(sim::Simulator &sim, cgroup::CgroupTree &tree,
                         ssd::SsdDevice &ssd, BlockDeviceConfig cfg)
    : sim_(sim), tree_(tree), ssd_(ssd), cfg_(cfg), inv_(cfg.invariants)
{
    switch (cfg_.elevator) {
      case ElevatorType::kNone:
        elevator_ = std::make_unique<NoneElevator>();
        break;
      case ElevatorType::kMqDeadline:
        elevator_ = std::make_unique<MqDeadline>(sim_, cfg_.mq_params);
        dispatch_cost_ = cfg_.mq_lock_hold;
        cpu_extra_ = cfg_.mq_cpu;
        break;
      case ElevatorType::kBfq:
        elevator_ = std::make_unique<Bfq>(sim_, tree_, cfg_.bfq_params);
        dispatch_cost_ = cfg_.bfq_lock_hold;
        cpu_extra_ = cfg_.bfq_cpu;
        break;
      case ElevatorType::kKyber:
        // Per-cpu token pools, no dispatch lock.
        elevator_ = std::make_unique<Kyber>(sim_, cfg_.kyber_params);
        cpu_extra_ = cfg_.kyber_cpu;
        break;
    }
    elevator_->setKick([this] { pumpDispatch(); });
    if (dispatch_cost_ > 0)
        dispatch_lock_ = std::make_unique<ssd::FifoServer>(sim_);

    auto enter_tags = [this](Request *req) { enterTags(req); };
    switch (cfg_.qos) {
      case QosType::kNone:
        return;
      case QosType::kIoMax: {
        auto gate = std::make_unique<IoMaxGate>(sim_, cfg_.dev_id, tree_,
                                                enter_tags);
        gate->setDebugCorruptBucket(cfg_.debug_corrupt_iomax_bucket);
        qos_ = std::move(gate);
        cpu_extra_ += cfg_.iomax_cpu;
        break;
      }
      case QosType::kIoLatency:
        qos_ = std::make_unique<IoLatencyGate>(
            sim_, cfg_.dev_id, tree_, enter_tags, cfg_.iolat_params);
        cpu_extra_ += cfg_.iolat_cpu;
        break;
      case QosType::kIoCost:
        qos_ = std::make_unique<IoCostGate>(
            sim_, cfg_.dev_id, tree_, enter_tags, cfg_.iocost_params);
        cpu_extra_ += cfg_.iocost_cpu;
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
    // Submitters recycle Request slots; clear per-request retry state.
    req->retries = 0;
    req->attempt = 0;
    req->failed = false;
    req->timeout_event = sim::kInvalidEventId;
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
    uint64_t attempt = ++attempt_seq_;
    req->attempt = attempt;
    if (cfg_.nvme_timeout.enabled) {
        req->timeout_event = sim_.after(
            cfg_.nvme_timeout.command_timeout,
            [this, req, attempt] { onCommandTimeout(req, attempt); });
    }
    ssd_.submit(req->op, req->offset, req->size, [this, req, attempt] {
        onDeviceComplete(req, attempt);
    });
}

void
BlockDevice::onDeviceComplete(Request *req, uint64_t attempt)
{
    if (req->attempt != attempt) {
        // An aborted attempt finishing anyway (its die time was already
        // spent), or the slot was recycled for a newer request. Either
        // way this completion belongs to nobody — drop it.
        ++fault_stats_.late_completions;
        return;
    }
    if (req->timeout_event != sim::kInvalidEventId) {
        sim_.cancel(req->timeout_event);
        req->timeout_event = sim::kInvalidEventId;
    }
    if (req->retries > 0) {
        ++fault_stats_.retry_successes;
        if (req->cg != nullptr)
            ++req->cg->mutableIoFaultStat().retry_successes;
    }
    finishRequest(req);
}

void
BlockDevice::onCommandTimeout(Request *req, uint64_t attempt)
{
    if (req->attempt != attempt)
        return; // stale timer
    req->timeout_event = sim::kInvalidEventId;
    // Abort the in-flight attempt: invalidating the attempt id makes its
    // eventual device completion a dropped late completion.
    req->attempt = 0;
    ++fault_stats_.timeouts;
    ++fault_stats_.aborts;
    if (req->cg != nullptr)
        ++req->cg->mutableIoFaultStat().timeouts;

    if (req->retries >= cfg_.nvme_timeout.max_retries) {
        ++fault_stats_.failed_ios;
        req->failed = true;
        if (req->cg != nullptr)
            ++req->cg->mutableIoFaultStat().failed_ios;
        finishRequest(req);
        return;
    }

    // Requeue with capped exponential backoff. The aborted attempt's
    // device time is spent: the gate's requeue hook lets io.cost bill it
    // to the issuing group.
    ++req->retries;
    uint32_t shift = std::min<uint32_t>(req->retries - 1, 30);
    SimTime backoff =
        std::min<SimTime>(cfg_.nvme_timeout.backoff_base << shift,
                          cfg_.nvme_timeout.backoff_cap);
    ++fault_stats_.requeues;
    if (req->cg != nullptr)
        ++req->cg->mutableIoFaultStat().requeues;
    if (qos_)
        qos_->onRequeue(req);
    sim_.after(backoff, [this, req] { issueToDevice(req); });
}

void
BlockDevice::finishRequest(Request *req)
{
    ++completed_;
    if (inv_ != nullptr) {
        if (req->failed)
            inv_->onFail(req->cg);
        else
            inv_->onComplete(req->cg);
    }
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
