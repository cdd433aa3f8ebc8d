/**
 * @file
 * Scenario: one isol-bench experiment instance.
 *
 * A scenario owns the whole simulated system — CPU cores, one or more
 * SSDs with their block-layer pipelines, a cgroup tree, and a set of
 * apps (fio jobs) — configured for exactly one cgroup I/O control knob,
 * mirroring the paper's setup (§III): no Docker, direct I/O, knobs
 * evaluated one at a time.
 *
 * Typical use:
 *   ScenarioConfig cfg;
 *   cfg.knob = Knob::kIoCost;
 *   Scenario s(cfg);
 *   uint32_t a = s.addApp(workload::lcApp("lc", secToNs(2)), "lc");
 *   s.tree().writeFile(s.appGroup(a), "io.weight", "1000");
 *   s.run();
 *   double p99 = nsToUs(s.app(a).latency().percentile(99));
 */

#ifndef ISOL_ISOLBENCH_SCENARIO_HH
#define ISOL_ISOLBENCH_SCENARIO_HH

#include <memory>
#include <string>
#include <vector>

#include "blk/block_device.hh"
#include "cgroup/cgroup.hh"
#include "fault/fault.hh"
#include "host/cpu.hh"
#include "host/engine.hh"
#include "sim/invariants.hh"
#include "sim/simulator.hh"
#include "ssd/device.hh"
#include "workload/adversary.hh"
#include "workload/app_profiles.hh"
#include "workload/job.hh"

namespace isol::isolbench
{

/** The cgroup I/O control knob under evaluation. */
enum class Knob : uint8_t
{
    kNone, //!< no I/O control (baseline)
    kMqDeadline, //!< MQ-DL + io.prio.class
    kBfq, //!< BFQ + io.bfq.weight
    kIoMax, //!< io.max
    kIoLatency, //!< io.latency
    kIoCost, //!< io.cost + io.weight
    kKyber, //!< Kyber scheduler (extension: no cgroup knob; see [75])
};

/** Kernel-style knob name used in reports. */
const char *knobName(Knob knob);

/** All knobs in the paper's column order. */
inline constexpr Knob kAllKnobs[] = {
    Knob::kNone,        Knob::kMqDeadline, Knob::kBfq,
    Knob::kIoMax,       Knob::kIoLatency,  Knob::kIoCost,
};

/** Scenario-wide configuration. */
struct ScenarioConfig
{
    std::string name = "scenario";
    Knob knob = Knob::kNone;
    uint32_t num_cores = 10;
    uint32_t num_devices = 1;
    ssd::SsdConfig device = ssd::samsung980ProLike();
    host::EngineConfig engine = host::ioUringEngine();
    bool precondition = false; //!< steady-state fill before writes
    SimTime duration = secToNs(int64_t{2});
    SimTime warmup = msToNs(300);
    uint64_t seed = 1;

    /**
     * io.cost configuration choice: when true, install the "generated"
     * achievable model + latency qos (paper §III / §VI); when false,
     * install a beyond-saturation model with qos disabled — the paper's
     * D1 overhead configuration (§V).
     */
    bool iocost_achievable_model = true;

    /** Elevator tunables (e.g. slice_idle=0 for the D1 experiments). */
    blk::MqDeadlineParams mq_params;
    blk::BfqParams bfq_params;

    /** io.cost mechanism tunables (ablation studies). */
    blk::IoCostParams iocost_params;

    /** Ablation: run the iocost period timer as host CPU work. */
    bool iocost_timer_on_cpu = true;

    /**
     * Fault-injection plane (strictly opt-in; the default keeps every
     * family disabled and the scenario identical to a fault-free build).
     */
    fault::FaultPlane faults;

    /**
     * Runtime invariant checking (sim/invariants.hh). Defaults to the
     * process-wide opt-in (`--check-invariants` flag or the
     * ISOL_CHECK_INVARIANTS env var); off means every hook is a single
     * null-pointer test.
     */
    bool check_invariants = sim::checkInvariantsDefault();

    /**
     * Negative-test mutation: deliberately corrupt an io.max token
     * bucket mid-run so the invariant checker has something to catch.
     */
    bool debug_corrupt_iomax_bucket = false;
};

/** The paper-default generated cost model (~2.3 GiB/s read saturation). */
cgroup::IoCostModel generatedCostModel();

/** A model far beyond device saturation (io.cost never throttles). */
cgroup::IoCostModel beyondSaturationCostModel();

/** Paper Fig. 2g/h qos: P95 read latency target 100 us, min=50 max=100. */
cgroup::IoCostQos paperCostQos();

/** QoS with latency checks disabled (D1 overhead configuration). */
cgroup::IoCostQos disabledCostQos();

/**
 * One fully wired experiment.
 */
class Scenario
{
  public:
    explicit Scenario(ScenarioConfig cfg);
    ~Scenario();
    Scenario(const Scenario &) = delete;
    Scenario &operator=(const Scenario &) = delete;

    const ScenarioConfig &config() const { return cfg_; }

    sim::Simulator &sim() { return sim_; }
    cgroup::CgroupTree &tree() { return tree_; }
    host::CpuSet &cpus() { return *cpus_; }

    uint32_t numDevices() const;
    blk::BlockDevice &device(uint32_t i);
    ssd::SsdDevice &ssd(uint32_t i);

    /**
     * Add an app running `spec` inside cgroup `cgroup_name` against
     * device `device_index`. Returns the app index.
     *
     * The name may be a slash path ("pods/a/lc"): interior groups are
     * created on first use with the io controller enabled at each level,
     * so knobs written on them act hierarchically (interior io.max =
     * shared subtree limit; interior io.weight splits across child
     * subtrees). Several apps may share one leaf group.
     */
    uint32_t addApp(workload::JobSpec spec, const std::string &cgroup_name,
                    uint32_t device_index = 0);

    /**
     * Add a misbehaving tenant (workload/adversary.hh) in cgroup
     * `cgroup_name` against device `device_index`, running for the full
     * scenario duration. Returns the app index.
     */
    uint32_t addAdversary(workload::AdversaryKind kind,
                          const std::string &cgroup_name,
                          uint32_t device_index = 0);

    uint32_t numApps() const;
    workload::FioJob &app(uint32_t i);

    /** Leaf cgroup of app `i`. */
    cgroup::Cgroup &appGroup(uint32_t i);

    /** Cgroup at `name` — a root-relative slash path ("pods/a/lc") or a
     *  flat name; must already exist (created by addApp). */
    cgroup::Cgroup &group(const std::string &name);

    /** Run the simulation to `cfg.duration`. Call once. */
    void run();

    // --- Window metrics (valid after run()) ---

    /** Measure-window length in ns. */
    SimTime windowNs() const { return cfg_.duration - cfg_.warmup; }

    /** Aggregated bandwidth of all apps in GiB/s. */
    double aggregateGiBs();

    /** App i's window bandwidth in GiB/s. */
    double appGiBs(uint32_t i);

    /** Mean CPU utilisation in [0, 1] over the window, all cores. */
    double cpuUtilization() const;

    /** Context switches per completed I/O over the whole run. */
    double contextSwitchesPerIo() const;

    /** Runtime invariant checker (nullptr when checking is off). */
    sim::InvariantChecker *invariants() { return inv_.get(); }

    /** Tenants whose spec carries an adversary tag. */
    uint32_t adversaryTenants() const;

  private:
    struct AppSlot;

    void buildDevices();

    /** Find-or-create the cgroup at a slash path, enabling +io at every
     *  interior level on the way down. */
    cgroup::Cgroup *ensureGroupPath(const std::string &path);

    ScenarioConfig cfg_;
    sim::Simulator sim_;
    std::unique_ptr<sim::InvariantChecker> inv_;
    cgroup::CgroupTree tree_;
    std::unique_ptr<host::CpuSet> cpus_;
    std::vector<std::unique_ptr<ssd::SsdDevice>> ssds_;
    std::vector<std::unique_ptr<blk::BlockDevice>> bdevs_;
    std::vector<std::unique_ptr<AppSlot>> apps_;

    SimTime busy_at_warmup_ = 0;
    bool ran_ = false;
};

} // namespace isol::isolbench

#endif // ISOL_ISOLBENCH_SCENARIO_HH
