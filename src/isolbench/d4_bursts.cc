#include "isolbench/d4_bursts.hh"

#include <algorithm>

#include "common/logging.hh"

namespace isol::isolbench
{

namespace
{

/** Apply the strongest-prioritization configuration for each knob. */
void
applyPriorityConfig(Scenario &scenario, Knob knob, PriorityAppKind kind,
                    cgroup::Cgroup &prio, cgroup::Cgroup &be)
{
    cgroup::CgroupTree &tree = scenario.tree();
    switch (knob) {
      case Knob::kNone:
      case Knob::kKyber: // reads are implicitly prioritized, no knob
        break;
      case Knob::kMqDeadline:
        tree.writeFile(prio, "io.prio.class", "promote-to-rt");
        tree.writeFile(be, "io.prio.class", "idle");
        break;
      case Knob::kBfq:
        tree.writeFile(prio, "io.bfq.weight", "1000");
        tree.writeFile(be, "io.bfq.weight", "1");
        break;
      case Knob::kIoMax:
        tree.writeFile(be, "io.max",
                       strCat("259:0 rbps=", 300 * MiB,
                              " wbps=", 300 * MiB));
        break;
      case Knob::kIoLatency: {
        uint64_t target_us = kind == PriorityAppKind::kLc ? 100 : 300;
        tree.writeFile(prio, "io.latency",
                       strCat("259:0 target=", target_us));
        break;
      }
      case Knob::kIoCost: {
        tree.writeFile(prio, "io.weight", "10000");
        cgroup::IoCostQos qos = paperCostQos();
        qos.rpct = 99.0;
        qos.rlat = usToNs(200);
        qos.vrate_min = 25.0;
        tree.setCostQos(0, qos);
        break;
      }
    }
}

} // namespace

BurstResult
runBurstResponse(Knob knob, PriorityAppKind kind, const BurstOptions &opts)
{
    ScenarioConfig cfg;
    cfg.name = strCat("d4-", knobName(knob), "-",
                      priorityAppKindName(kind));
    cfg.knob = knob;
    cfg.num_cores = opts.num_cores;
    cfg.num_devices = 1;
    cfg.duration = opts.duration;
    cfg.warmup = msToNs(100);
    cfg.seed = opts.seed;
    // Paper SS III: SS VI experiments use libaio when throttling.
    cfg.engine = host::libaioEngine();
    cfg.iocost_achievable_model = true;

    Scenario scenario(cfg);

    // Priority app bursts in at burst_start and runs to the end.
    workload::JobSpec prio_spec =
        kind == PriorityAppKind::kBatch
            ? workload::batchApp("prio", cfg.duration - opts.burst_start)
            : workload::lcApp("prio", cfg.duration - opts.burst_start);
    prio_spec.start_time = opts.burst_start;
    prio_spec.stats_bin = opts.bin;
    uint32_t prio_idx = scenario.addApp(std::move(prio_spec), "prio");

    for (uint32_t i = 0; i < kNumBeApps; ++i) {
        workload::JobSpec spec =
            workload::beApp(strCat("be", i), cfg.duration);
        scenario.addApp(std::move(spec), "be");
    }

    applyPriorityConfig(scenario, knob, kind, scenario.appGroup(prio_idx),
                        scenario.group("be"));
    scenario.run();

    BurstResult result;
    result.knob = knob;
    result.kind = kind;

    // Steady state: mean bin rate over the last quarter of the run.
    const stats::TimeSeries &series =
        scenario.app(prio_idx).bandwidthSeries();
    SimTime steady_from =
        opts.burst_start + (cfg.duration - opts.burst_start) * 3 / 4;
    double steady = series.meanRate(steady_from, cfg.duration);
    result.steady_value = steady / static_cast<double>(GiB);
    if (steady <= 0.0)
        return result; // priority app never made progress

    // First bin (after the burst) sustaining >= threshold x steady for
    // three consecutive bins.
    double bin_secs = nsToSec(opts.bin);
    double need = opts.threshold * steady * bin_secs;
    size_t first_bin =
        static_cast<size_t>(opts.burst_start / opts.bin) + 1;
    for (size_t b = first_bin; b + 2 < series.numBins(); ++b) {
        bool sustained = true;
        for (size_t k = 0; k < 3; ++k) {
            if (static_cast<double>(series.binTotal(b + k)) < need) {
                sustained = false;
                break;
            }
        }
        if (sustained) {
            SimTime when = static_cast<SimTime>(b) * opts.bin;
            result.response_ms = nsToMs(when - opts.burst_start);
            return result;
        }
    }
    return result; // never reached: response_ms stays -1
}

} // namespace isol::isolbench
