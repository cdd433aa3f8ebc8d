#include "blk/qos_latency.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strings.hh"
#include "sim/invariants.hh"

namespace isol::blk
{

namespace
{

std::string
groupLabel(const cgroup::Cgroup *cg)
{
    return cg != nullptr ? cg->name() : std::string("<root>");
}

} // namespace

IoLatencyGate::IoLatencyGate(sim::Simulator &sim, cgroup::DeviceId dev,
                             cgroup::CgroupTree &tree, PassFn pass,
                             IoLatencyParams params)
    : RqQos(sim, dev, tree, std::move(pass)), params_(params)
{
    timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, params_.window, [this] { windowTick(); });
}

void
IoLatencyGate::start()
{
    timer_->start();
}

IoLatencyGate::CgState &
IoLatencyGate::stateFor(const cgroup::Cgroup *cg)
{
    CgState *existing = states_.find(cg);
    if (existing != nullptr)
        return *existing;
    CgState &st = states_.stateFor(cg);
    st.qd_limit = params_.max_nr_requests;
    return st;
}

void
IoLatencyGate::onCgroupRemoved(cgroup::Cgroup &cg)
{
    CgState *st = states_.find(&cg);
    if (st == nullptr)
        return;
    if (!st->queue.empty() || st->inflight != 0) {
        fatal("io.latency: cgroup '" + cg.path() + "' removed with " +
              std::to_string(st->queue.size()) + " queued and " +
              std::to_string(st->inflight) + " in-flight I/Os");
    }
    states_.erase(&cg);
}

uint32_t
IoLatencyGate::qdLimit(const cgroup::Cgroup *cg) const
{
    const CgState *st = states_.find(cg);
    return st == nullptr ? params_.max_nr_requests : st->qd_limit;
}

uint32_t
IoLatencyGate::useDelay(const cgroup::Cgroup *cg) const
{
    const CgState *st = states_.find(cg);
    return st == nullptr ? 0 : st->use_delay;
}

void
IoLatencyGate::submit(Request *req)
{
    CgState &st = stateFor(req->cg);
    if (st.queue.empty() && st.inflight < st.qd_limit) {
        ++st.inflight;
        if (inv_ != nullptr) {
            inv_->require(st.inflight <= st.qd_limit,
                          "io.latency window accounting",
                          strCat("cgroup '", groupLabel(st.cg),
                                 "': admitted past qd_limit ",
                                 st.qd_limit));
        }
        pass_(req);
        return;
    }
    st.queue.push_back(req);
    ++throttled_;
}

void
IoLatencyGate::onComplete(Request *req)
{
    CgState &st = stateFor(req->cg);
    st.window_lat.record(sim_.now() - req->blk_enter_time);
    if (inv_ != nullptr) {
        inv_->require(st.inflight > 0, "io.latency window accounting",
                      strCat("cgroup '", groupLabel(st.cg),
                             "': completion would underflow in-flight"));
    }
    if (st.inflight == 0)
        panic("IoLatencyGate: inflight underflow");
    --st.inflight;
    drain(st);
}

void
IoLatencyGate::drain(CgState &st)
{
    while (!st.queue.empty() && st.inflight < st.qd_limit) {
        Request *head = st.queue.front();
        st.queue.pop_front();
        --throttled_;
        ++st.inflight;
        if (inv_ != nullptr) {
            inv_->require(st.inflight <= st.qd_limit,
                          "io.latency window accounting",
                          strCat("cgroup '", groupLabel(st.cg),
                                 "': drained past qd_limit ",
                                 st.qd_limit));
        }
        pass_(head);
    }
}

void
IoLatencyGate::windowTick()
{
    // Determine the strictest violated target; groups are only penalised
    // on behalf of groups with *stricter* (smaller) targets.
    SimTime strictest_violated = kSimTimeMax;
    bool any_violated = false;
    for (CgState &st : states_) {
        ++bookkeeping_ops_;
        if (st.cg == nullptr)
            continue;
        SimTime target = st.cg->ioLatencyTarget(dev_);
        if (target <= 0 || st.window_lat.count() == 0)
            continue;
        SimTime p = st.window_lat.percentile(params_.percentile);
        if (p > target) {
            any_violated = true;
            strictest_violated = std::min(strictest_violated, target);
        }
    }

    for (CgState &st : states_) {
        ++bookkeeping_ops_;
        SimTime target =
            st.cg == nullptr ? kSimTimeMax : st.cg->ioLatencyTarget(dev_);
        if (target <= 0)
            target = kSimTimeMax; // no target: lowest priority
        bool is_victim = any_violated && target > strictest_violated;

        if (is_victim) {
            if (st.qd_limit > 1) {
                // Halve once per window.
                st.qd_limit = std::max(1u, st.qd_limit / 2);
            } else {
                // Stuck at QD 1 and the target is still violated.
                ++st.use_delay;
            }
        } else if (st.qd_limit < params_.max_nr_requests) {
            // Unthrottle opportunity.
            if (st.use_delay > 0) {
                --st.use_delay;
            } else {
                st.qd_limit = std::min(
                    params_.max_nr_requests,
                    st.qd_limit + params_.max_nr_requests / 4);
            }
        }
        st.window_lat.clear();
        drain(st);
    }
}

} // namespace isol::blk
