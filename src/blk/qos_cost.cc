#include "blk/qos_cost.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strings.hh"
#include "sim/invariants.hh"

namespace isol::blk
{

IoCostGate::IoCostGate(sim::Simulator &sim, cgroup::DeviceId dev,
                       cgroup::CgroupTree &tree, PassFn pass,
                       IoCostParams params)
    : RqQos(sim, dev, tree, std::move(pass)), params_(params)
{
    cgroup::IoCostQos qos = tree_.costQos(dev_);
    vrate_ = qos.vrate_max / 100.0;
    timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, params_.period, [this] { periodTick(); });
}

void
IoCostGate::start()
{
    timer_->start();
}

IoCostGate::CgState &
IoCostGate::stateFor(const cgroup::Cgroup *cg)
{
    CgState *existing = states_.find(cg);
    if (existing != nullptr)
        return *existing;
    CgState &st = states_.stateFor(cg);
    st.vtime = vnow_;
    return st;
}

void
IoCostGate::ensureChainStates(const cgroup::Cgroup *cg)
{
    for (const cgroup::Cgroup *node = cg;
         node != nullptr && !node->isRoot(); node = node->parent())
        stateFor(node);
}

void
IoCostGate::onCgroupRemoved(cgroup::Cgroup &cg)
{
    CgState *st = states_.find(&cg);
    if (st == nullptr)
        return;
    if (!st->queue.empty()) {
        fatal("io.cost: cgroup '" + cg.path() + "' removed with " +
              std::to_string(st->queue.size()) + " queued I/Os");
    }
    if (st->wake_event != sim::kInvalidEventId)
        sim_.cancel(st->wake_event);
    if (st->active) {
        --active_count_;
        shares_dirty_ = true;
    }
    states_.erase(&cg);
}

SimTime
IoCostGate::absCost(OpType op, bool sequential, uint32_t size) const
{
    // Kernel linear-model form (calc_lcoefs): the per-I/O coefficient is
    // the *residual* of the IOPS duty point above the per-page cost, so
    // a 4 KiB random read costs max(1/riops, size/bps) rather than the
    // sum — the model's saturation points are met exactly.
    cgroup::IoCostModel model = tree_.costModel(dev_);
    const double page = 4096.0;
    double bps;
    uint64_t iops;
    if (op == OpType::kRead) {
        bps = static_cast<double>(model.rbps);
        iops = sequential ? model.rseqiops : model.rrandiops;
    } else {
        bps = static_cast<double>(model.wbps);
        iops = sequential ? model.wseqiops : model.wrandiops;
    }
    double page_cost = page / bps;
    double io_resid =
        std::max(0.0, 1.0 / static_cast<double>(iops) - page_cost);
    double seconds =
        static_cast<double>(size) / bps + io_resid;
    return static_cast<SimTime>(seconds * 1e9);
}

void
IoCostGate::updateVnow()
{
    SimTime now = sim_.now();
    if (now > vnow_updated_) {
        vnow_ += static_cast<double>(now - vnow_updated_) * vrate_;
        vnow_updated_ = now;
    }
}

void
IoCostGate::activate(CgState &st)
{
    st.last_io = sim_.now();
    if (st.active)
        return;
    st.active = true;
    ++active_count_;
    // A group joining after idling must not spend banked history.
    st.vtime = std::max(st.vtime, vnow_ - params_.credit_cap);
    shares_dirty_ = true;
}

void
IoCostGate::ensureShares()
{
    if (shares_dirty_ || shares_tree_version_ != tree_.version())
        recomputeShares();
}

void
IoCostGate::recomputeShares()
{
    shares_dirty_ = false;
    shares_tree_version_ = tree_.version();

    // Mark every tree node with an active descendant, accumulate each
    // marked node's weight into its parent's sibling sum, then resolve
    // each active group's hierarchical share as a product of
    // weight/sibling-sum up its cached ancestor chain. All flat
    // dense-id arrays — O(active x depth) with no hashing, which is
    // what keeps a 1000-tenant activation storm affordable.
    size_t cap = tree_.idCapacity();
    marked_scratch_.assign(cap, 0);
    weight_sum_scratch_.assign(cap, 0);
    marked_ids_.clear();
    for (CgState &st : states_) {
        if (!st.active || st.cg == nullptr)
            continue;
        for (cgroup::CgroupId id : st.cg->chain()) {
            if (marked_scratch_[id] != 0)
                break; // ancestors above are already marked
            marked_scratch_[id] = 1;
            marked_ids_.push_back(id);
            ++bookkeeping_ops_;
        }
    }
    for (cgroup::CgroupId id : marked_ids_) {
        const cgroup::Cgroup &g = tree_.group(id);
        weight_sum_scratch_[g.parent()->id()] += g.ioWeight();
        ++bookkeeping_ops_;
    }
    for (CgState &st : states_) {
        if (st.cg == nullptr) {
            st.share = 1.0;
            continue;
        }
        if (!st.active)
            continue;
        double share = 1.0;
        for (cgroup::CgroupId id : st.cg->chain()) {
            const cgroup::Cgroup &g = tree_.group(id);
            uint64_t sum = weight_sum_scratch_[g.parent()->id()];
            if (sum == 0)
                sum = g.ioWeight();
            share *= static_cast<double>(g.ioWeight()) /
                     static_cast<double>(sum);
            ++bookkeeping_ops_;
        }
        st.raw_share = std::max(share, 1e-9);
        // Activation/weight changes grant the full raw share; the next
        // period's donation pass trims unused budget again.
        st.share = st.raw_share;
    }
}

void
IoCostGate::donateShares()
{
    // Donation (kernel hweight_inuse): an active group consuming well
    // below its share keeps only usage + headroom; freed budget goes to
    // budget-constrained groups in proportion to their raw weights.
    double period_cap =
        static_cast<double>(params_.period) * std::max(vrate_, 1e-6);
    double want_sum = 0.0;
    double receiver_raw_sum = 0.0;
    donate_receivers_.clear();

    for (CgState &st : states_) {
        if (!st.active)
            continue;
        ++bookkeeping_ops_;
        double usage = st.period_abs / period_cap;
        st.period_abs = 0.0;
        bool constrained = usage >= 0.85 * st.share;
        double want;
        if (constrained) {
            // Using its grant: expand back toward the raw share.
            want = std::min(st.raw_share,
                            std::max(st.share * 2.0, usage * 1.25 + 0.02));
            donate_receivers_.push_back(&st);
            receiver_raw_sum += st.raw_share;
        } else {
            // Donor: keep usage plus headroom.
            want = std::min(st.raw_share, usage * 1.25 + 0.02);
        }
        st.share = std::max(want, 1e-9);
        want_sum += st.share;
    }

    double surplus = 1.0 - want_sum;
    if (surplus <= 0.0)
        return;
    if (!donate_receivers_.empty()) {
        for (CgState *st : donate_receivers_)
            st->share += surplus * st->raw_share / receiver_raw_sum;
        return;
    }
    // Nobody is constrained: return the surplus weight-proportionally so
    // no group sits below its raw entitlement (the D1 "must not
    // throttle" configurations rely on this).
    double raw_sum = 0.0;
    for (CgState &st : states_) {
        if (st.active)
            raw_sum += st.raw_share;
    }
    if (raw_sum <= 0.0)
        return;
    for (CgState &st : states_) {
        if (st.active)
            st.share += surplus * st.raw_share / raw_sum;
    }
}

void
IoCostGate::chargeSubtree(const cgroup::Cgroup *cg, double abs)
{
    if (cg == nullptr)
        return;
    // O(depth) walk over the cached ancestor chain: two array loads per
    // level (id -> slot -> state), no pointer chasing through the tree.
    for (cgroup::CgroupId id : cg->chain()) {
        states_.findId(id)->subtree_abs += abs;
        ++bookkeeping_ops_;
    }
}

bool
IoCostGate::tryCharge(CgState &st, OpType op, bool sequential,
                      uint32_t size)
{
    ensureShares();
    updateVnow();
    if (st.vtime < vnow_ - params_.credit_cap)
        st.vtime = vnow_ - params_.credit_cap;
    double abs = static_cast<double>(absCost(op, sequential, size));
    double cost = abs / std::max(st.share, 1e-9);
    if (st.vtime + cost <= vnow_ + static_cast<double>(params_.margin)) {
        st.vtime += cost;
        st.period_abs += abs; // usage accounting for donation
        chargeSubtree(st.cg, abs);
        if (inv_ != nullptr) {
            inv_->checkMonotonicAt(
                st.inv_vtime_last, "io.cost vtime monotonicity",
                strCat("cgroup '",
                       st.cg != nullptr ? st.cg->name() : "<root>", "'"),
                st.vtime);
        }
        return true;
    }
    return false;
}

void
IoCostGate::onRequeue(Request *req)
{
    if (req->cg == nullptr)
        return;
    ensureChainStates(req->cg);
    CgState &st = *states_.find(req->cg);
    activate(st);
    ensureShares();
    updateVnow();
    double abs = static_cast<double>(absCost(*req));
    st.vtime += abs / std::max(st.share, 1e-9);
    st.period_abs += abs;
    chargeSubtree(st.cg, abs);
    if (inv_ != nullptr) {
        inv_->checkMonotonicAt(st.inv_vtime_last,
                               "io.cost vtime monotonicity",
                               strCat("cgroup '", req->cg->name(), "'"),
                               st.vtime);
    }
}

void
IoCostGate::submit(Request *req)
{
    ensureChainStates(req->cg);
    CgState &st = stateFor(req->cg);
    activate(st);
    if (st.queue.empty() &&
        tryCharge(st, req->op, req->sequential, req->size)) {
        pass_(req);
        return;
    }
    st.queue.push_back(QEnt{req, req->op, req->sequential, req->size});
    ++throttled_;
    drain(st);
}

void
IoCostGate::drain(CgState &st)
{
    if (st.wake_event != sim::kInvalidEventId) {
        sim_.cancel(st.wake_event);
        st.wake_event = sim::kInvalidEventId;
    }
    while (!st.queue.empty()) {
        const QEnt head = st.queue.front();
        if (tryCharge(st, head.op, head.sequential, head.size)) {
            st.queue.pop_front();
            --throttled_;
            pass_(head.req);
            continue;
        }
        // Compute when the device clock will have advanced enough.
        double cost = static_cast<double>(
                          absCost(head.op, head.sequential, head.size)) /
                      std::max(st.share, 1e-9);
        double needed =
            st.vtime + cost - static_cast<double>(params_.margin) - vnow_;
        SimTime delay = static_cast<SimTime>(
            needed / std::max(vrate_, 1e-6));
        delay = std::max<SimTime>(delay, usToNs(1));
        const cgroup::Cgroup *cg = st.cg;
        st.wake_event = sim_.after(delay, [this, cg] {
            CgState &state = stateFor(cg);
            state.wake_event = sim::kInvalidEventId;
            drain(state);
        });
        return;
    }
}

void
IoCostGate::onComplete(Request *req)
{
    SimTime lat = sim_.now() - req->dispatch_time;
    if (req->op == OpType::kRead)
        window_read_lat_.record(lat);
    else
        window_write_lat_.record(lat);
}

void
IoCostGate::periodTick()
{
    // The period timer is kernel work: walking the active groups holds
    // the ioc lock and competes with submission paths for CPU. Charge it
    // to the host CPU first; the control decisions run when it retires.
    SimTime work = params_.timer_cpu_base +
                   params_.timer_cpu_per_group *
                       static_cast<SimTime>(active_count_);
    if (cpu_charge_) {
        cpu_charge_(work, [this] { periodWork(); });
    } else {
        periodWork();
    }
}

void
IoCostGate::checkHierarchicalCharges()
{
    // Sum each parent's children into a dense-id scratch array, then
    // require every interior node's own subtree charge to cover it. By
    // construction (chargeSubtree charges whole chains) equality holds;
    // a violation means a charge or refund skipped a level.
    size_t cap = tree_.idCapacity();
    child_abs_scratch_.assign(cap, 0.0);
    for (CgState &st : states_) {
        if (st.cg == nullptr || st.cg->isRoot())
            continue;
        const cgroup::Cgroup *parent = st.cg->parent();
        if (!parent->isRoot())
            child_abs_scratch_[parent->id()] += st.subtree_abs;
    }
    for (CgState &st : states_) {
        if (st.cg == nullptr || st.cg->children().empty())
            continue;
        inv_->checkHierarchy(
            "io.cost hierarchical charge conservation",
            strCat("cgroup '", st.cg->name(), "'"),
            child_abs_scratch_[st.cg->id()], st.subtree_abs);
    }
}

void
IoCostGate::periodWork()
{
    updateVnow();

    // Deactivate groups idle for more than two periods (weight donation).
    for (CgState &st : states_) {
        ++bookkeeping_ops_;
        if (st.active && st.queue.empty() &&
            sim_.now() - st.last_io > 2 * params_.period) {
            st.active = false;
            --active_count_;
            shares_dirty_ = true;
        }
    }
    ensureShares();
    if (params_.enable_donation)
        donateShares();

    // QoS: compare windowed device latencies against the targets and
    // scale vrate within [min, max].
    cgroup::IoCostQos qos = tree_.costQos(dev_);
    double vmin = qos.vrate_min / 100.0;
    double vmax = qos.vrate_max / 100.0;
    if (!qos.enable) {
        vrate_ = vmax;
    } else {
        bool read_checked = qos.rpct > 0.0 && window_read_lat_.count() > 0;
        bool write_checked =
            qos.wpct > 0.0 && window_write_lat_.count() > 0;
        bool violated =
            (read_checked &&
             window_read_lat_.percentile(qos.rpct) > qos.rlat) ||
            (write_checked &&
             window_write_lat_.percentile(qos.wpct) > qos.wlat);
        if (violated)
            vrate_ = std::max(vmin, vrate_ * params_.vrate_step_down);
        else
            vrate_ = std::min(vmax, vrate_ + params_.vrate_step_up * vmax);
    }
    window_read_lat_.clear();
    window_write_lat_.clear();

    if (inv_ != nullptr)
        checkHierarchicalCharges();

    // Wakeup estimates are stale after a vrate change: re-drain.
    for (CgState &st : states_) {
        if (!st.queue.empty())
            drain(st);
    }
}

double
IoCostGate::shareOf(const cgroup::Cgroup *cg)
{
    ensureShares();
    return stateFor(cg).share;
}

double
IoCostGate::subtreeAbsOf(const cgroup::Cgroup *cg) const
{
    const CgState *st = states_.find(cg);
    return st == nullptr ? 0.0 : st->subtree_abs;
}

} // namespace isol::blk
