#include "isolbench/d1_overhead.hh"

#include "common/logging.hh"

namespace isol::isolbench
{

void
applyOverheadKnobDefaults(ScenarioConfig &cfg)
{
    if (cfg.knob == Knob::kBfq)
        cfg.bfq_params.slice_idle = 0; // paper §V disables slice_idle
    if (cfg.knob == Knob::kIoCost)
        cfg.iocost_achievable_model = false; // beyond-saturation model
}

void
applyNoopGroupLimits(Scenario &scenario)
{
    Knob knob = scenario.config().knob;
    for (uint32_t i = 0; i < scenario.numApps(); ++i) {
        cgroup::Cgroup &cg = scenario.appGroup(i);
        for (uint32_t dev = 0; dev < scenario.numDevices(); ++dev) {
            std::string dev_prefix = strCat("259:", dev, " ");
            if (knob == Knob::kIoMax) {
                scenario.tree().writeFile(
                    cg, "io.max",
                    dev_prefix + "rbps=107374182400 wbps=107374182400");
            } else if (knob == Knob::kIoLatency) {
                // Multi-second target: never violated.
                scenario.tree().writeFile(cg, "io.latency",
                                          dev_prefix + "target=3000000");
            }
        }
    }
}

LcScalingResult
runLcScaling(Knob knob, uint32_t apps, const D1Options &opts)
{
    ScenarioConfig cfg;
    cfg.name = strCat("d1-lc-", knobName(knob), "-", apps);
    cfg.knob = knob;
    cfg.num_cores = 1;
    cfg.num_devices = 1;
    cfg.duration = opts.duration;
    cfg.warmup = opts.warmup;
    cfg.seed = opts.seed;
    applyOverheadKnobDefaults(cfg);

    Scenario scenario(cfg);
    for (uint32_t i = 0; i < apps; ++i) {
        workload::JobSpec spec =
            workload::lcApp(strCat("lc", i), cfg.duration);
        scenario.addApp(std::move(spec), strCat("lc", i));
    }
    applyNoopGroupLimits(scenario);
    scenario.run();

    LcScalingResult result;
    result.knob = knob;
    result.apps = apps;
    stats::Histogram merged;
    for (uint32_t i = 0; i < apps; ++i)
        merged.merge(scenario.app(i).latency());
    result.p99_us = nsToUs(merged.percentile(99));
    result.cpu_util = scenario.cpuUtilization();
    result.ctx_per_io = scenario.contextSwitchesPerIo();
    for (auto [value, prob] : merged.cdf())
        result.cdf.emplace_back(nsToUs(value), prob);
    return result;
}

BatchScalingResult
runBatchScaling(Knob knob, uint32_t apps, uint32_t ssds,
                const D1Options &opts)
{
    ScenarioConfig cfg;
    cfg.name = strCat("d1-batch-", knobName(knob), "-", apps, "x", ssds);
    cfg.knob = knob;
    cfg.num_cores = 10;
    cfg.num_devices = ssds;
    cfg.duration = opts.duration;
    cfg.warmup = opts.warmup;
    cfg.seed = opts.seed;
    applyOverheadKnobDefaults(cfg);

    Scenario scenario(cfg);
    for (uint32_t i = 0; i < apps; ++i) {
        workload::JobSpec spec =
            workload::batchApp(strCat("batch", i), cfg.duration);
        scenario.addApp(std::move(spec), strCat("batch", i), i % ssds);
    }
    applyNoopGroupLimits(scenario);
    scenario.run();

    BatchScalingResult result;
    result.knob = knob;
    result.apps = apps;
    result.ssds = ssds;
    result.agg_gibs = scenario.aggregateGiBs();
    result.cpu_util = scenario.cpuUtilization();
    return result;
}

} // namespace isol::isolbench
