#include "blk/qos_max.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strings.hh"
#include "sim/invariants.hh"

namespace isol::blk
{

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

/** InvariantChecker::require, building the detail only on failure. */
template <typename... Parts>
void
check(sim::InvariantChecker &inv, bool ok, const char *what,
      const Parts &...detail)
{
    inv.require(ok, what, ok ? std::string() : strCat(detail...));
}

} // namespace

IoMaxGate::Admission
IoMaxGate::admissionTime(const cgroup::Cgroup *cg, OpType op,
                         uint32_t size)
{
    SimTime now = sim_.now();
    Admission adm{now, kNoGroup};
    if (cg == nullptr)
        return adm;
    (void)size;
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
            if (base > adm.when) {
                adm.when = base;
                adm.blocker = id;
            }
        };
        bool read = op == OpType::kRead;
        consider(read ? st.rbps : st.wbps,
                 read ? st.limits.rbps : st.limits.wbps);
        consider(read ? st.riops : st.wiops,
                 read ? st.limits.riops : st.limits.wiops);
    }
    return adm;
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
    const cgroup::Cgroup *cg = req->cg;
    ensureChainStates(cg);
    CgState &st = *states_.find(cg);
    if (st.queue.empty() &&
        admissionTime(cg, req->op, req->size).blocker == kNoGroup) {
        consume(cg, req->op, req->size);
        pass_(req);
        return;
    }
    st.queue.push_back(QEnt{req, req->op, req->size});
    ++throttled_;
    if (st.parked_on == kNoGroup) {
        const QEnt &head = st.queue.front();
        wait(cg, admissionTime(cg, head.op, head.size));
    }
}

IoMaxGate::Admission
IoMaxGate::release(const cgroup::Cgroup *cg)
{
    CgState *st = states_.find(cg);
    while (!st->queue.empty()) {
        const QEnt head = st->queue.front();
        Admission adm = admissionTime(cg, head.op, head.size);
        if (adm.blocker != kNoGroup)
            return adm;
        consume(cg, head.op, head.size);
        st->queue.pop_front();
        --throttled_;
        pass_(head.req);
    }
    return Admission{sim_.now(), kNoGroup};
}

void
IoMaxGate::wait(const cgroup::Cgroup *cg, Admission adm)
{
    CgState &st = *states_.find(cg);
    if (inv_ != nullptr) {
        check(*inv_, st.parked_on == kNoGroup, "io.max single wait",
              "cgroup '", cg->name(), "' waits while already waiting");
    }
    // Park at the tail of the blocker's FIFO for the head's direction.
    // A group blocked by its own buckets parks in its own FIFO.
    auto dir = dirOf(st.queue.front().op);
    st.parked_on = adm.blocker;
    ++parked_;
    CgState &node = *states_.findId(adm.blocker);
    if (node.wait_tail[dir] == kNoGroup)
        node.wait_head[dir] = cg->id();
    else
        states_.findId(node.wait_tail[dir])->next_waiter = cg->id();
    node.wait_tail[dir] = cg->id();
    // The first waiter arms the blocker's one wake timer. Admission
    // times only grow while the limits stay put, but a live io.max
    // rewrite can lift the dimension that set the armed time; a waiter
    // due earlier then brings the wake forward.
    if (node.wake_at[dir] < 0) {
        armWake(node, dir, adm.when);
    } else if (adm.when < node.wake_at[dir]) {
        sim_.cancel(node.wake_ev[dir]);
        armWake(node, dir, adm.when);
    }
}

void
IoMaxGate::armWake(CgState &node, size_t dir, SimTime when)
{
    const cgroup::Cgroup *node_cg = node.cg;
    node.wake_at[dir] = when;
    node.wake_ev[dir] =
        sim_.at(when, [this, node_cg, dir] { wake(node_cg, dir); });
}

void
IoMaxGate::popWaiter(CgState &node, size_t dir)
{
    CgState &waiter = *states_.findId(node.wait_head[dir]);
    if (inv_ != nullptr) {
        check(*inv_, waiter.parked_on == node.cg->id(), "io.max single wait",
              "cgroup '", waiter.cg->name(), "' in the waiter FIFO of '",
              node.cg->name(), "' is not parked there");
    }
    node.wait_head[dir] = waiter.next_waiter;
    if (node.wait_head[dir] == kNoGroup)
        node.wait_tail[dir] = kNoGroup;
    waiter.parked_on = kNoGroup;
    waiter.next_waiter = kNoGroup;
    --parked_;
}

void
IoMaxGate::wake(const cgroup::Cgroup *node_cg, size_t dir)
{
    cgroup::CgroupId node_id = node_cg->id();
    for (;;) {
        cgroup::CgroupId head = states_.findId(node_id)->wait_head[dir];
        if (head == kNoGroup) {
            states_.findId(node_id)->wake_at[dir] = -1;
            return;
        }
        const cgroup::Cgroup *cg = states_.findId(head)->cg;
        Admission adm = release(cg);
        CgState &node = *states_.findId(node_id);
        // Still blocked here: every waiter behind would fail on the
        // same bucket, so the head keeps its place and the node re-arms.
        if (adm.blocker == node_id &&
            dirOf(states_.findId(head)->queue.front().op) == dir) {
            armWake(node, dir, adm.when);
            return;
        }
        // Drained, or blocked elsewhere (its own buckets, another
        // ancestor, or this node's other direction): leave this FIFO
        // and serve the next waiter.
        popWaiter(node, dir);
        if (adm.blocker != kNoGroup)
            wait(cg, adm);
    }
}

SimTime
IoMaxGate::wakeTimeOf(const cgroup::Cgroup *node, OpType op) const
{
    const CgState *st = states_.find(node);
    return st == nullptr ? -1 : st->wake_at[dirOf(op)];
}

uint64_t
IoMaxGate::consumedBytesOf(const cgroup::Cgroup *cg) const
{
    const CgState *st = states_.find(cg);
    return st == nullptr ? 0 : st->consumed_bytes;
}

void
IoMaxGate::verifyWaiters()
{
    if (inv_ == nullptr)
        return;
    // Count FIFO memberships per dense id by walking every FIFO; a
    // group met twice is in two FIFOs, or a FIFO has a cycle.
    id_scratch_.assign(tree_.idCapacity(), 0);
    size_t queued = 0;
    for (CgState &node : states_) {
        queued += node.queue.size();
        for (size_t dir = 0; dir < 2; ++dir) {
            check(*inv_,
                  (node.wait_head[dir] == kNoGroup) == (node.wake_at[dir] < 0),
                  "io.max waiter wake armed", "cgroup '", node.cg->name(),
                  "' FIFO ", dir);
            cgroup::CgroupId last = kNoGroup;
            for (cgroup::CgroupId id = node.wait_head[dir]; id != kNoGroup;
                 id = states_.findId(id)->next_waiter) {
                const CgState *w = states_.findId(id);
                check(*inv_,
                      w != nullptr && id_scratch_[id] == 0 &&
                          w->parked_on == node.cg->id(),
                      "io.max single wait", "waiter id ", id,
                      " in the FIFO of '", node.cg->name(), "'");
                id_scratch_[id] = 1;
                last = id;
            }
            check(*inv_, node.wait_tail[dir] == last,
                  "io.max waiter FIFO tail", "cgroup '", node.cg->name(),
                  "'");
        }
    }
    size_t parked = 0;
    for (const CgState &st : states_) {
        uint64_t waits = id_scratch_[st.cg->id()];
        check(*inv_, waits == (st.queue.empty() ? 0u : 1u),
              "io.max single wait", "cgroup '", st.cg->name(), "' with ",
              st.queue.size(), " queued I/Os waits ", waits, " times");
        parked += st.parked_on != kNoGroup;
    }
    check(*inv_, queued == throttled_ && parked == parked_,
          "io.max throttled count", throttled_, " throttled vs ", queued,
          " queued, ", parked_, " parked vs ", parked, " linked");
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
    id_scratch_.assign(tree_.idCapacity(), 0);
    for (const CgState &st : states_) {
        const cgroup::Cgroup *parent = st.cg->parent();
        if (!parent->isRoot())
            id_scratch_[parent->id()] += st.consumed_bytes;
    }
    for (const CgState &st : states_) {
        if (st.cg->children().empty())
            continue;
        inv_->checkHierarchy(
            "io.max hierarchical consumption",
            strCat("cgroup '", st.cg->name(), "'"),
            static_cast<double>(id_scratch_[st.cg->id()]),
            static_cast<double>(st.consumed_bytes));
    }
}

} // namespace isol::blk
