#include "blk/bfq.hh"

#include <algorithm>

#include "common/logging.hh"

namespace isol::blk
{

Bfq::Bfq(sim::Simulator &sim, cgroup::CgroupTree &tree, BfqParams params)
    : sim_(sim), tree_(tree), params_(params)
{
    removal_token_ = tree_.addRemovalListener(
        [this](cgroup::Cgroup &cg) { onCgroupRemoved(cg); });
}

Bfq::~Bfq()
{
    if (idle_event_ != sim::kInvalidEventId)
        sim_.cancel(idle_event_);
    tree_.removeRemovalListener(removal_token_);
}

Bfq::Queue &
Bfq::queueFor(const cgroup::Cgroup *cg)
{
    Queue *existing = queues_.find(cg);
    if (existing != nullptr)
        return *existing;
    Queue &q = queues_.stateFor(cg);
    // New/empty queues start at the current virtual time so they
    // cannot claim service for their idle past.
    q.vfinish = vtime_;
    q.seq = next_seq_++;
    return q;
}

void
Bfq::onCgroupRemoved(cgroup::Cgroup &cg)
{
    Queue *q = queues_.find(&cg);
    if (q == nullptr)
        return;
    if (!q->fifo.empty()) {
        fatal("bfq: cgroup '" + cg.path() + "' removed with " +
              std::to_string(q->fifo.size()) + " queued I/Os");
    }
    if (has_in_service_ && in_service_cg_ == &cg) {
        // Slice ends with the group; any pending idle window lapses on
        // its own and simply picks the next queue.
        has_in_service_ = false;
        in_service_cg_ = nullptr;
    }
    queues_.erase(&cg);
}

double
Bfq::weightOf(Queue &q)
{
    if (q.cg == nullptr)
        return 100.0; // requests without a cgroup: default weight
    // Hierarchical relative weight: absolute io.bfq.weight resolved
    // against active siblings through the cgroup tree (scaled so flat
    // single-group setups keep familiar magnitudes). Cached against the
    // tree version: the walk is O(depth x siblings) and selectNext()
    // would otherwise pay it per dispatch.
    uint64_t version = tree_.version();
    if (q.weight_version != version) {
        q.weight_version = version;
        double share = tree_.hierarchicalShare(*q.cg, /*bfq=*/true);
        q.weight = std::max(1e-6, share) * 1000.0;
    }
    return q.weight;
}

void
Bfq::insert(Request *req)
{
    Queue &q = queueFor(req->cg);
    if (q.fifo.empty()) {
        // B-WF2Q+ back-shifting: a queue that merely drained for a
        // moment (its I/O is in flight) keeps its virtual-time credit,
        // otherwise weights would be erased every time a rate-limited
        // queue runs dry mid-slice. Only a queue idle for longer than a
        // grace window re-enters at the current virtual time.
        SimTime grace = std::max<SimTime>(params_.slice_idle, msToNs(2));
        if (q.last_busy < 0 || sim_.now() - q.last_busy > grace)
            q.vfinish = std::max(q.vfinish, vtime_);
    }
    q.fifo.push_back(req);
    ++queued_;

    // An arrival for the idling in-service queue resumes service
    // immediately; any other arrival waits for the idle window to lapse.
    if (idling_ && has_in_service_ && in_service_cg_ == req->cg) {
        idling_ = false;
        if (idle_event_ != sim::kInvalidEventId) {
            sim_.cancel(idle_event_);
            idle_event_ = sim::kInvalidEventId;
        }
        kick();
    }
}

Bfq::Queue *
Bfq::pickQueue()
{
    // Strict ordering on (vfinish, creation seq) makes selection
    // deterministic: on equal vfinish the earliest-created queue wins,
    // independent of slot layout after swap-removes.
    Queue *best = nullptr;
    for (Queue &q : queues_) {
        ++bookkeeping_ops_;
        if (q.fifo.empty())
            continue;
        if (best == nullptr || q.vfinish < best->vfinish ||
            (q.vfinish == best->vfinish && q.seq < best->seq))
            best = &q;
    }
    return best;
}

Bfq::Queue *
Bfq::inServiceQueue()
{
    if (!has_in_service_)
        return nullptr;
    return queues_.find(in_service_cg_);
}

Request *
Bfq::serveFrom(Queue *q)
{
    Request *req = q->fifo.front();
    q->fifo.pop_front();
    --queued_;
    double weight = weightOf(*q);
    q->vfinish += static_cast<double>(req->size) / weight;
    vtime_ = std::max(vtime_, q->vfinish);
    q->slice_served += req->size;
    q->last_busy = sim_.now();
    return req;
}

Request *
Bfq::selectNext()
{
    if (idling_)
        return nullptr; // waiting for the in-service queue to send more

    Queue *q = inServiceQueue();
    if (q != nullptr) {
        if (q->slice_served >= params_.max_budget) {
            // Budget exhausted: expire the slice.
            q->slice_served = 0;
            has_in_service_ = false;
            in_service_cg_ = nullptr;
        } else if (!q->fifo.empty()) {
            return serveFrom(q);
        } else if (params_.slice_idle > 0) {
            // Queue ran dry mid-slice: idle, hoping it sends more soon.
            idling_ = true;
            idle_event_ = sim_.after(params_.slice_idle, [this] {
                idle_event_ = sim::kInvalidEventId;
                if (!idling_)
                    return;
                idling_ = false;
                Queue *in_service = inServiceQueue();
                if (in_service != nullptr)
                    in_service->slice_served = 0;
                has_in_service_ = false;
                in_service_cg_ = nullptr;
                kick();
            });
            return nullptr;
        } else {
            has_in_service_ = false;
            in_service_cg_ = nullptr;
        }
    }

    Queue *next = pickQueue();
    if (next == nullptr)
        return nullptr;
    has_in_service_ = true;
    in_service_cg_ = next->cg;
    next->slice_served = 0;
    return serveFrom(next);
}

bool
Bfq::empty() const
{
    return queued_ == 0;
}

size_t
Bfq::queued() const
{
    return queued_;
}

} // namespace isol::blk
