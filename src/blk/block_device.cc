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
        dispatch_cost_ = 0;
        break;
      case ElevatorType::kMqDeadline:
        elevator_ = std::make_unique<MqDeadline>(sim_, cfg_.mq_params);
        dispatch_cost_ = cfg_.mq_lock_hold;
        break;
      case ElevatorType::kBfq:
        elevator_ = std::make_unique<Bfq>(sim_, tree_, cfg_.bfq_params);
        dispatch_cost_ = cfg_.bfq_lock_hold;
        break;
      case ElevatorType::kKyber:
        elevator_ = std::make_unique<Kyber>(sim_, cfg_.kyber_params);
        dispatch_cost_ = 0; // per-cpu token pools, no dispatch lock
        break;
    }
    elevator_->setKick([this] { pumpDispatch(); });
    if (dispatch_cost_ > 0)
        dispatch_lock_ = std::make_unique<ssd::FifoServer>(sim_);

    if (cfg_.enable_io_latency) {
        cfg_.iolat_params.max_nr_requests =
            cfg_.iolatency_max_nr_requests;
        io_latency_ = std::make_unique<IoLatencyGate>(
            sim_, cfg_.dev_id, tree_,
            [this](Request *req) { enterTags(req); }, cfg_.iolat_params);
        io_latency_->setInvariants(inv_);
    }
    if (cfg_.enable_io_cost) {
        io_cost_ = std::make_unique<IoCostGate>(
            sim_, cfg_.dev_id, tree_,
            [this](Request *req) { afterIoCost(req); },
            cfg_.iocost_params);
        io_cost_->setInvariants(inv_);
    }
    if (cfg_.enable_io_max) {
        io_max_ = std::make_unique<IoMaxGate>(
            sim_, cfg_.dev_id, tree_,
            [this](Request *req) { afterIoMax(req); });
        io_max_->setInvariants(inv_);
        io_max_->setDebugCorruptBucket(cfg_.debug_corrupt_iomax_bucket);
    }
}

uint64_t
BlockDevice::gateBookkeepingOps() const
{
    uint64_t ops = elevator_->bookkeepingOps();
    if (io_max_)
        ops += io_max_->bookkeepingOps();
    if (io_latency_)
        ops += io_latency_->bookkeepingOps();
    if (io_cost_)
        ops += io_cost_->bookkeepingOps();
    return ops;
}

void
BlockDevice::finalInvariantChecks()
{
    if (inv_ == nullptr)
        return;
    if (io_max_) {
        io_max_->verifyHierarchicalConsumption();
        io_max_->verifyWaiters();
    }
    if (io_cost_)
        io_cost_->checkHierarchicalCharges();
}

void
BlockDevice::start()
{
    if (io_latency_)
        io_latency_->start();
    if (io_cost_)
        io_cost_->start();
}

void
BlockDevice::setTimerCpuCharge(IoCostGate::CpuChargeFn fn)
{
    if (io_cost_)
        io_cost_->setCpuCharge(std::move(fn));
}

SimTime
BlockDevice::perIoCpuExtra() const
{
    SimTime extra = 0;
    switch (cfg_.elevator) {
      case ElevatorType::kNone:
        break;
      case ElevatorType::kMqDeadline:
        extra += cfg_.mq_cpu;
        break;
      case ElevatorType::kBfq:
        extra += cfg_.bfq_cpu;
        break;
      case ElevatorType::kKyber:
        extra += cfg_.kyber_cpu;
        break;
    }
    if (cfg_.enable_io_max)
        extra += cfg_.iomax_cpu;
    if (cfg_.enable_io_latency)
        extra += cfg_.iolat_cpu;
    if (cfg_.enable_io_cost)
        extra += cfg_.iocost_cpu;
    return extra;
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
    if (io_max_) {
        io_max_->submit(req);
        return;
    }
    afterIoMax(req);
}

void
BlockDevice::afterIoMax(Request *req)
{
    if (io_cost_) {
        io_cost_->submit(req);
        return;
    }
    afterIoCost(req);
}

void
BlockDevice::afterIoCost(Request *req)
{
    if (io_latency_) {
        io_latency_->submit(req);
        return;
    }
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
    // device time is spent: bill it to the issuing group so io.cost sees
    // the retried work.
    ++req->retries;
    uint32_t shift = std::min<uint32_t>(req->retries - 1, 30);
    SimTime backoff =
        std::min<SimTime>(cfg_.nvme_timeout.backoff_base << shift,
                          cfg_.nvme_timeout.backoff_cap);
    ++fault_stats_.requeues;
    if (req->cg != nullptr)
        ++req->cg->mutableIoFaultStat().requeues;
    if (io_cost_)
        io_cost_->chargeRetry(req);
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
    if (io_cost_)
        io_cost_->onDeviceComplete(req);
    if (io_latency_)
        io_latency_->onComplete(req);
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
