#include "blk/rq_qos.hh"

namespace isol::blk
{

RqQos::RqQos(sim::Simulator &sim, cgroup::DeviceId dev,
             cgroup::CgroupTree &tree, PassFn pass)
    : sim_(sim), dev_(dev), tree_(tree), pass_(std::move(pass))
{
    removal_token_ = tree_.addRemovalListener(
        [this](cgroup::Cgroup &cg) { onCgroupRemoved(cg); });
}

RqQos::~RqQos()
{
    tree_.removeRemovalListener(removal_token_);
}

} // namespace isol::blk
