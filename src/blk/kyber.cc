#include "blk/kyber.hh"

#include <algorithm>

namespace isol::blk
{

Kyber::Kyber(sim::Simulator &sim, KyberParams params)
    : sim_(sim), params_(params), write_depth_(params.write_depth)
{
    timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, params_.tune_window, [this] { tune(); });
    timer_->start();
}

Kyber::~Kyber() = default;

Kyber::Domain
Kyber::domainOf(const Request &req)
{
    return req.op == OpType::kRead ? kReadDom : kWriteDom;
}

uint32_t
Kyber::depthOf(Domain dom) const
{
    return dom == kReadDom ? params_.read_depth : write_depth_;
}

void
Kyber::insert(Request *req)
{
    // Reuse dispatch_time as the insert timestamp for window latency; it
    // is overwritten at actual dispatch by BlockDevice.
    domains_[domainOf(*req)].fifo.push_back(req);
    ++queued_;
}

Request *
Kyber::selectNext()
{
    // Reads first (Kyber's whole point is protecting reads), writes
    // behind their scaled token depth.
    for (int d = 0; d < kNumDomains; ++d) {
        auto dom = static_cast<Domain>(d);
        DomainState &state = domains_[d];
        if (state.fifo.empty())
            continue;
        if (state.inflight >= depthOf(dom))
            continue; // out of domain tokens
        Request *req = state.fifo.front();
        state.fifo.pop_front();
        --queued_;
        ++state.inflight;
        return req;
    }
    return nullptr;
}

void
Kyber::onComplete(Request *req)
{
    DomainState &state = domains_[domainOf(*req)];
    if (state.inflight > 0)
        --state.inflight;
    state.window_lat.push_back(sim_.now() - req->blk_enter_time);
    // A token was returned: dispatching may resume.
    kick();
}

SimTime
Kyber::windowP99(std::vector<SimTime> &samples)
{
    if (samples.size() < 8)
        return 0;
    size_t idx = samples.size() * 99 / 100;
    if (idx >= samples.size())
        idx = samples.size() - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<ptrdiff_t>(idx),
                     samples.end());
    return samples[idx];
}

void
Kyber::tune()
{
    SimTime read_p99 = windowP99(domains_[kReadDom].window_lat);
    SimTime write_p99 = windowP99(domains_[kWriteDom].window_lat);
    domains_[kReadDom].window_lat.clear();
    domains_[kWriteDom].window_lat.clear();

    if (read_p99 > params_.read_lat_target) {
        // Reads are hurting: throttle the write domain.
        write_depth_ = std::max(1u, write_depth_ / 2);
    } else if (write_p99 <= params_.write_lat_target &&
               write_depth_ < params_.write_depth) {
        // Both domains healthy: recover write depth gradually.
        write_depth_ = std::min(params_.write_depth,
                                write_depth_ + write_depth_ / 4 + 1);
    }
    kick();
}

bool
Kyber::empty() const
{
    return queued_ == 0;
}

size_t
Kyber::queued() const
{
    return queued_;
}

} // namespace isol::blk
