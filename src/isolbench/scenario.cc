#include "isolbench/scenario.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strings.hh"
#include "isolbench/sweep.hh"
#include "isolbench/validate.hh"

namespace isol::isolbench
{

const char *
knobName(Knob knob)
{
    switch (knob) {
      case Knob::kNone: return "none";
      case Knob::kMqDeadline: return "mq-deadline";
      case Knob::kBfq: return "bfq";
      case Knob::kIoMax: return "io.max";
      case Knob::kIoLatency: return "io.latency";
      case Knob::kIoCost: return "io.cost";
      case Knob::kKyber: return "kyber";
    }
    return "?";
}

cgroup::IoCostModel
generatedCostModel()
{
    cgroup::IoCostModel model;
    model.user = true;
    model.rbps = 2400ull * MiB; // => ~2.25 GiB/s 4 KiB randread point
    model.rseqiops = 650000;
    model.rrandiops = 600000;
    model.wbps = 450ull * MiB; // sustained, GC included
    model.wseqiops = 120000;
    model.wrandiops = 110000;
    return model;
}

cgroup::IoCostModel
beyondSaturationCostModel()
{
    cgroup::IoCostModel model;
    model.user = true;
    model.rbps = 100ull * GiB;
    model.rseqiops = 50000000;
    model.rrandiops = 50000000;
    model.wbps = 100ull * GiB;
    model.wseqiops = 50000000;
    model.wrandiops = 50000000;
    return model;
}

cgroup::IoCostQos
paperCostQos()
{
    cgroup::IoCostQos qos;
    qos.enable = true;
    qos.rpct = 95.0;
    qos.rlat = usToNs(100);
    qos.wpct = 95.0;
    qos.wlat = usToNs(400);
    qos.vrate_min = 50.0;
    qos.vrate_max = 100.0;
    return qos;
}

cgroup::IoCostQos
disabledCostQos()
{
    cgroup::IoCostQos qos;
    qos.enable = true;
    qos.rpct = 0.0;
    qos.wpct = 0.0;
    qos.vrate_min = 25.0;
    qos.vrate_max = 100.0;
    return qos;
}

/** Book-keeping for one app: the job plus its wiring. */
struct Scenario::AppSlot
{
    std::unique_ptr<workload::FioJob> job;
    cgroup::Cgroup *cg = nullptr;
    uint32_t device_index = 0;
};

Scenario::Scenario(ScenarioConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.num_devices == 0)
        fatal("Scenario: need at least one device");
    if (cfg_.warmup >= cfg_.duration)
        fatal("Scenario: warmup must be shorter than duration");
    if (cfg_.check_invariants)
        inv_ = std::make_unique<sim::InvariantChecker>(cfg_.name);
    cpus_ = std::make_unique<host::CpuSet>(sim_, cfg_.num_cores);
    buildDevices();
}

Scenario::~Scenario() = default;

void
Scenario::buildDevices()
{
    for (uint32_t i = 0; i < cfg_.num_devices; ++i) {
        auto ssd = std::make_unique<ssd::SsdDevice>(sim_, cfg_.device,
                                                    cfg_.seed + i * 977);
        if (cfg_.precondition)
            ssd->precondition(1.0, 2.0);

        blk::BlockDeviceConfig bcfg;
        bcfg.dev_id = i;
        bcfg.invariants = inv_.get();
        bcfg.bfq_params = cfg_.bfq_params;
        switch (cfg_.knob) {
          case Knob::kNone:
            break;
          case Knob::kMqDeadline:
            bcfg.elevator = blk::ElevatorType::kMqDeadline;
            break;
          case Knob::kBfq:
            bcfg.elevator = blk::ElevatorType::kBfq;
            break;
          case Knob::kIoMax:
            bcfg.qos = blk::QosType::kIoMax;
            break;
          case Knob::kIoLatency:
            bcfg.qos = blk::QosType::kIoLatency;
            break;
          case Knob::kIoCost:
            bcfg.qos = blk::QosType::kIoCost;
            break;
          case Knob::kKyber:
            bcfg.elevator = blk::ElevatorType::kKyber;
            break;
        }
        auto bdev = std::make_unique<blk::BlockDevice>(sim_, tree_, *ssd,
                                                       bcfg);
        if (cfg_.knob == Knob::kIoCost) {
            // io.cost.model / io.cost.qos are root-only globals.
            if (cfg_.iocost_achievable_model) {
                tree_.setCostModel(i, generatedCostModel());
                tree_.setCostQos(i, paperCostQos());
            } else {
                tree_.setCostModel(i, beyondSaturationCostModel());
                tree_.setCostQos(i, disabledCostQos());
            }
            // The iocost period timer is kernel work on CPU 0.
            host::CpuCore &core = cpus_->core(0);
            bdev->ioCostGate()->setCpuCharge(
                [&core](SimTime work, sim::SmallCallback done) {
                    core.charge(host::kKernelTask, work, std::move(done));
                });
        }
        ssds_.push_back(std::move(ssd));
        bdevs_.push_back(std::move(bdev));
    }
}

uint32_t
Scenario::numDevices() const
{
    return static_cast<uint32_t>(bdevs_.size());
}

blk::BlockDevice &
Scenario::device(uint32_t i)
{
    return *bdevs_.at(i);
}

ssd::SsdDevice &
Scenario::ssd(uint32_t i)
{
    return *ssds_.at(i);
}

uint32_t
Scenario::addApp(workload::JobSpec spec, const std::string &cgroup_name,
                 uint32_t device_index)
{
    if (ran_)
        fatal("Scenario: cannot add apps after run()");
    if (device_index >= bdevs_.size())
        fatal("Scenario: bad device index");

    cgroup::Cgroup *leaf = ensureGroupPath(cgroup_name);

    auto slot = std::make_unique<AppSlot>();
    slot->cg = leaf;
    slot->device_index = device_index;
    if (spec.seed == 1)
        spec.seed = cfg_.seed + apps_.size() * 7919 + 13;
    auto task = static_cast<host::TaskId>(apps_.size() + 1);
    slot->job = std::make_unique<workload::FioJob>(
        sim_, std::move(spec), *bdevs_[device_index], cpus_->assign(),
        cfg_.engine, tree_, leaf, task);
    slot->job->setMeasureWindow(cfg_.warmup, cfg_.duration);
    apps_.push_back(std::move(slot));
    return static_cast<uint32_t>(apps_.size() - 1);
}

uint32_t
Scenario::addAdversary(workload::AdversaryKind kind,
                       const std::string &cgroup_name,
                       uint32_t device_index)
{
    return addApp(workload::adversaryApp(
                      kind,
                      strCat(cgroup_name, "-", workload::adversaryName(kind)),
                      cfg_.duration),
                  cgroup_name, device_index);
}

uint32_t
Scenario::numApps() const
{
    return static_cast<uint32_t>(apps_.size());
}

workload::FioJob &
Scenario::app(uint32_t i)
{
    return *apps_.at(i)->job;
}

cgroup::Cgroup &
Scenario::appGroup(uint32_t i)
{
    return *apps_.at(i)->cg;
}

cgroup::Cgroup *
Scenario::ensureGroupPath(const std::string &path)
{
    // Walk/create a slash-separated path under the root, enabling the io
    // controller at every interior level (cgroup v2 requires "+io" in the
    // parent's subtree_control before child knobs work). Interior groups
    // stay process-free — the no-internal-processes rule — so knobs like
    // io.max on them act as shared subtree limits.
    cgroup::Cgroup *node = &tree_.root();
    size_t start = 0;
    while (start <= path.size()) {
        size_t slash = path.find('/', start);
        size_t end = slash == std::string::npos ? path.size() : slash;
        std::string part = path.substr(start, end - start);
        if (!part.empty()) {
            if (!node->ioControllerEnabled())
                tree_.enableIoController(*node);
            cgroup::Cgroup *next = nullptr;
            for (cgroup::Cgroup *child : node->children()) {
                if (child->name() == part) {
                    next = child;
                    break;
                }
            }
            node = next != nullptr ? next
                                   : &tree_.createChild(*node, part);
        }
        if (slash == std::string::npos)
            break;
        start = slash + 1;
    }
    if (node == &tree_.root())
        fatal("Scenario: empty cgroup path");
    return node;
}

cgroup::Cgroup &
Scenario::group(const std::string &name)
{
    cgroup::Cgroup *node = tree_.resolve(name);
    if (node == nullptr || node == &tree_.root())
        fatal("Scenario: no cgroup named '" + name + "'");
    return *node;
}

void
Scenario::run()
{
    if (ran_)
        fatal("Scenario: run() already called");
    ran_ = true;
    for (auto &bdev : bdevs_)
        bdev->start();
    for (auto &slot : apps_)
        slot->job->schedule();
    sim_.at(cfg_.warmup, [this] {
        busy_at_warmup_ = cpus_->totalBusyNs();
    });
    double wall_start_ms = sweep::monotonicMs();
    sim_.runUntil(cfg_.duration);
    double wall_ms = sweep::monotonicMs() - wall_start_ms;

    if (inv_) {
        uint64_t total_iodepth = 0;
        for (const auto &slot : apps_)
            total_iodepth += slot->job->spec().iodepth;
        inv_->finalCheck(total_iodepth);
        // Hierarchical conservation: per-subtree gate counters must
        // still reconcile bottom-up after the last event.
        for (auto &bdev : bdevs_)
            bdev->finalInvariantChecks();
    }

    sweep::recordProfile(sweep::ScenarioProfile{
        wall_ms, sim_.eventsExecuted(), sim_.peakQueueDepth()});

    // A run that finishes with inconsistent counters must not flow into
    // a figure: the violation propagates and fails the whole sweep.
    validate::enforce(validate::checkScenario(*this), cfg_.name);
}

double
Scenario::aggregateGiBs()
{
    uint64_t bytes = 0;
    for (auto &slot : apps_)
        bytes += slot->job->windowBytes();
    return bytesOverNsToGiBs(bytes, windowNs());
}

double
Scenario::appGiBs(uint32_t i)
{
    return static_cast<double>(apps_.at(i)->job->windowBytes()) /
           static_cast<double>(GiB) / nsToSec(windowNs());
}

double
Scenario::cpuUtilization() const
{
    SimTime busy = cpus_->totalBusyNs() - busy_at_warmup_;
    double denom = nsToSec(windowNs()) * cfg_.num_cores;
    return std::clamp(nsToSec(busy) / denom, 0.0, 1.0);
}

double
Scenario::contextSwitchesPerIo() const
{
    uint64_t ios = 0;
    for (const auto &slot : apps_)
        ios += slot->job->totalIos();
    if (ios == 0)
        return 0.0;
    return static_cast<double>(cpus_->totalContextSwitches()) /
           static_cast<double>(ios);
}

} // namespace isol::isolbench
