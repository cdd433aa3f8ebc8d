#include "blk/qos_max.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strings.hh"
#include "sim/invariants.hh"

namespace isol::blk
{

IoMaxGate::IoMaxGate(sim::Simulator &sim, cgroup::DeviceId dev,
                     cgroup::CgroupTree &tree, PassFn pass)
    : sim_(sim), dev_(dev), tree_(tree), pass_(std::move(pass))
{
    removal_token_ = tree_.addRemovalListener(
        [this](cgroup::Cgroup &cg) { onCgroupRemoved(cg); });
}

IoMaxGate::~IoMaxGate()
{
    tree_.removeRemovalListener(removal_token_);
}

void
IoMaxGate::ensureChainStates(const cgroup::Cgroup *cg)
{
    for (const cgroup::Cgroup *node = cg;
         node != nullptr && !node->isRoot(); node = node->parent())
        states_.stateFor(node);
}

void
IoMaxGate::onCgroupRemoved(cgroup::Cgroup &cg)
{
    CgState *st = states_.find(&cg);
    if (st == nullptr)
        return;
    if (!st->queue.empty()) {
        fatal("io.max: cgroup '" + cg.path() + "' removed with " +
              std::to_string(st->queue.size()) + " queued I/Os");
    }
    states_.erase(&cg);
}

const cgroup::IoMaxLimits &
IoMaxGate::limitsOf(CgState &st)
{
    uint64_t version = tree_.version();
    if (st.limits_version != version) {
        st.limits_version = version;
        st.limits = st.cg->ioMax(dev_);
        st.limited = !st.limits.unlimited();
    }
    return st.limits;
}

namespace
{

/**
 * Time needed to earn `amount` units at `rate` units/s, in ns.
 */
SimTime
earnTime(uint64_t amount, uint64_t rate)
{
    return static_cast<SimTime>(static_cast<double>(amount) /
                                static_cast<double>(rate) * 1e9);
}

} // namespace

SimTime
IoMaxGate::admissionTime(const cgroup::Cgroup *cg, OpType op,
                         uint32_t size)
{
    SimTime now = sim_.now();
    if (cg == nullptr)
        return now;
    (void)size;
    SimTime when = now;
    // O(depth) chain walk: the request must clear its own buckets and
    // those of every limited ancestor (an interior io.max is a shared
    // token bucket over the whole subtree).
    for (cgroup::CgroupId id : cg->chain()) {
        CgState &st = *states_.findId(id);
        ++bookkeeping_ops_;
        limitsOf(st);
        if (!st.limited)
            continue;
        auto consider = [&](const Bucket &bucket, uint64_t rate) {
            if (rate == 0)
                return;
            // Idle credit is capped: the bucket cannot be "owed" more
            // than one slice into the past.
            SimTime base = std::max(bucket.next_free, now - kSlice);
            when = std::max(when, base);
        };
        bool read = op == OpType::kRead;
        consider(read ? st.rbps : st.wbps,
                 read ? st.limits.rbps : st.limits.wbps);
        consider(read ? st.riops : st.wiops,
                 read ? st.limits.riops : st.limits.wiops);
    }
    return when;
}

void
IoMaxGate::advanceBuckets(CgState &st, OpType op, uint32_t size)
{
    SimTime now = sim_.now();
    const cgroup::Cgroup *cg = st.cg;
    auto advance = [&](Bucket &bucket, const char *dim, uint64_t amount,
                       uint64_t rate) {
        if (rate == 0)
            return;
        if (inv_ != nullptr) {
            inv_->require(bucket.next_free >= 0,
                          "io.max bucket non-negativity",
                          strCat("cgroup '", cg->name(), "' ", dim,
                                 " bucket horizon at ", bucket.next_free,
                                 " ns"));
        }
        SimTime base = std::max(bucket.next_free, now - kSlice);
        bucket.next_free = base + earnTime(amount, rate);
        if (inv_ != nullptr) {
            inv_->checkMonotonicAt(
                bucket.inv_last, "io.max bucket monotonicity",
                strCat("cgroup '", cg->name(), "' ", dim, " bucket"),
                static_cast<double>(bucket.next_free));
        }
    };
    bool read = op == OpType::kRead;
    if (read) {
        advance(st.rbps, "rbps", size, st.limits.rbps);
        advance(st.riops, "riops", 1, st.limits.riops);
    } else {
        advance(st.wbps, "wbps", size, st.limits.wbps);
        advance(st.wiops, "wiops", 1, st.limits.wiops);
    }
}

void
IoMaxGate::consume(const cgroup::Cgroup *cg, OpType op, uint32_t size)
{
    if (cg == nullptr)
        return;
    // Charge the whole chain, self first: subtree consumption counters
    // accumulate at every level, so the hierarchical conservation check
    // (children never outspend the parent) holds by construction.
    uint64_t child_bytes = 0;
    bool have_child = false;
    for (cgroup::CgroupId id : cg->chain()) {
        CgState &st = *states_.findId(id);
        ++bookkeeping_ops_;
        limitsOf(st);
        if (st.limited)
            advanceBuckets(st, op, size);
        st.consumed_bytes += size;
        st.consumed_ios += 1;
        if (inv_ != nullptr && have_child) {
            // This node is the parent of the previous chain entry: a
            // child running ahead of its parent means a skipped level.
            inv_->checkHierarchy(
                "io.max hierarchical consumption",
                strCat("cgroup '", st.cg->name(), "'"),
                static_cast<double>(child_bytes),
                static_cast<double>(st.consumed_bytes));
        }
        child_bytes = st.consumed_bytes;
        have_child = true;
    }
    // Deliberate fault injection for the invariant checker's negative
    // tests: after a fixed consume count, tear the bandwidth bucket the
    // offending cgroup is actively draining, so its very next request
    // of the same kind walks into the corrupted state.
    if (debug_corrupt_bucket_ && ++debug_consumes_ == 64) {
        CgState &self = *states_.find(cg);
        (op == OpType::kRead ? self.rbps : self.wbps).next_free =
            -msToNs(100);
    }
}

void
IoMaxGate::submit(Request *req)
{
    if (req->cg == nullptr) {
        pass_(req);
        return;
    }
    ensureChainStates(req->cg);
    CgState &st = *states_.find(req->cg);
    if (st.queue.empty()) {
        SimTime when = admissionTime(req->cg, req->op, req->size);
        if (when <= sim_.now()) {
            consume(req->cg, req->op, req->size);
            pass_(req);
            return;
        }
    }
    st.queue.push_back(QEnt{req, req->op, req->size});
    ++throttled_;
    if (!st.draining) {
        st.draining = true;
        const cgroup::Cgroup *cg = req->cg;
        const QEnt &head = st.queue.front();
        SimTime when = admissionTime(cg, head.op, head.size);
        sim_.at(std::max(when, sim_.now()), [this, cg] { drain(cg); });
    }
}

void
IoMaxGate::drain(const cgroup::Cgroup *cg)
{
    CgState *stp = states_.find(cg);
    if (stp == nullptr)
        return; // group removed while a drain was in flight
    stp->draining = false;
    while (!stp->queue.empty()) {
        const QEnt head = stp->queue.front();
        SimTime when = admissionTime(cg, head.op, head.size);
        if (when <= sim_.now()) {
            consume(cg, head.op, head.size);
            stp->queue.pop_front();
            --throttled_;
            pass_(head.req);
            continue;
        }
        // A sibling may have consumed shared ancestor credit since the
        // last estimate; re-arm for the fresh admission time.
        stp->draining = true;
        sim_.at(when, [this, cg] { drain(cg); });
        return;
    }
}

uint64_t
IoMaxGate::consumedBytesOf(const cgroup::Cgroup *cg) const
{
    const CgState *st = states_.find(cg);
    return st == nullptr ? 0 : st->consumed_bytes;
}

void
IoMaxGate::verifyHierarchicalConsumption()
{
    if (inv_ == nullptr)
        return;
    // Sum each parent's children into a dense-id scratch array, then
    // require every interior node's own subtree consumption to cover
    // it (charges walk whole chains, so equality holds unless a level
    // was skipped).
    child_bytes_scratch_.assign(tree_.idCapacity(), 0);
    for (const CgState &st : states_) {
        const cgroup::Cgroup *parent = st.cg->parent();
        if (!parent->isRoot())
            child_bytes_scratch_[parent->id()] += st.consumed_bytes;
    }
    for (const CgState &st : states_) {
        if (st.cg->children().empty())
            continue;
        inv_->checkHierarchy(
            "io.max hierarchical consumption",
            strCat("cgroup '", st.cg->name(), "'"),
            static_cast<double>(child_bytes_scratch_[st.cg->id()]),
            static_cast<double>(st.consumed_bytes));
    }
}

} // namespace isol::blk
