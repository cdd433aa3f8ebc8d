#include "isolbench/d5_degradation.hh"

#include <cstdio>

#include "common/logging.hh"

namespace isol::isolbench
{

namespace
{

/** Strongest-prioritization knob configuration (mirrors D4). */
void
applyPriorityConfig(Scenario &scenario, Knob knob, cgroup::Cgroup &lc,
                    cgroup::Cgroup &be)
{
    cgroup::CgroupTree &tree = scenario.tree();
    switch (knob) {
      case Knob::kNone:
      case Knob::kKyber: // reads are implicitly prioritized, no knob
        break;
      case Knob::kMqDeadline:
        tree.writeFile(lc, "io.prio.class", "promote-to-rt");
        tree.writeFile(be, "io.prio.class", "idle");
        break;
      case Knob::kBfq:
        tree.writeFile(lc, "io.bfq.weight", "1000");
        tree.writeFile(be, "io.bfq.weight", "1");
        break;
      case Knob::kIoMax:
        tree.writeFile(be, "io.max",
                       strCat("259:0 rbps=", 300 * MiB,
                              " wbps=", 300 * MiB));
        break;
      case Knob::kIoLatency:
        tree.writeFile(lc, "io.latency", "259:0 target=100");
        break;
      case Knob::kIoCost: {
        tree.writeFile(lc, "io.weight", "10000");
        cgroup::IoCostQos qos = paperCostQos();
        qos.rpct = 99.0;
        qos.rlat = usToNs(200);
        qos.vrate_min = 25.0;
        tree.setCostQos(0, qos);
        break;
      }
    }
}

/** Metrics of one scenario run (healthy or degraded). */
struct RunMetrics
{
    double lc_p99_us = 0.0;
    double be_gibs = 0.0;
    double agg_gibs = 0.0;
    fault::DeviceFaultStats dev;
    fault::HostFaultStats host;
};

RunMetrics
runOne(Knob knob, const DegradationOptions &opts, bool degraded)
{
    ScenarioConfig cfg;
    cfg.name = strCat("d5-", knobName(knob), "-",
                      degraded ? "degraded" : "healthy");
    cfg.knob = knob;
    cfg.num_cores = opts.num_cores;
    cfg.num_devices = 1;
    cfg.duration = opts.duration;
    cfg.warmup = opts.warmup;
    cfg.seed = opts.seed;
    cfg.device = opts.device;
    cfg.engine = host::libaioEngine();
    cfg.precondition = true; // BE writers need write steady state
    if (degraded) {
        cfg.faults = fault::profileConfig(opts.profile);
        // Pin the media degradation to the BE tenant's LBA range (the
        // second half of the device) instead of a die region: the knobs
        // must protect the LC tenant from collateral damage.
        cfg.faults.device.media.faulty_die_fraction = 0.0;
        cfg.faults.device.media.faulty_lba_begin = 0.5;
        cfg.faults.device.media.faulty_lba_len = 0.5;
    }

    Scenario scenario(cfg);
    const uint64_t cap = cfg.device.user_capacity;

    // LC tenant on the first (healthy) half of the LBA space.
    workload::JobSpec lc_spec = workload::lcApp("lc", cfg.duration);
    lc_spec.offset_base = 0;
    lc_spec.range = cap / 2;
    uint32_t lc_idx = scenario.addApp(std::move(lc_spec), "lc");

    // BE tenant confined to the second half (degraded under faults).
    // Even indices read; odd indices write 4 KiB randomly, feeding GC
    // and the thermal accumulator.
    for (uint32_t i = 0; i < opts.num_be_apps; ++i) {
        workload::JobSpec spec =
            workload::beApp(strCat("be", i), cfg.duration);
        if (i % 2 == 1) {
            spec.op = OpType::kWrite;
            spec.iodepth = 64;
        }
        spec.offset_base = cap / 2;
        spec.range = cap / 2;
        scenario.addApp(std::move(spec), "be");
    }

    applyPriorityConfig(scenario, knob, scenario.appGroup(lc_idx),
                        scenario.group("be"));
    scenario.run();

    RunMetrics m;
    m.lc_p99_us = nsToUs(scenario.app(lc_idx).latency().percentile(99));
    for (uint32_t i = 0; i < scenario.numApps(); ++i) {
        if (i != lc_idx)
            m.be_gibs += scenario.appGiBs(i);
    }
    m.agg_gibs = scenario.aggregateGiBs();
    m.dev = scenario.ssd(0).faultStats();
    m.host = scenario.device(0).faultStats();
    return m;
}

std::string
fmt(double v, const char *format = "%.2f")
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

} // namespace

DegradationResult
runDegradation(Knob knob, const DegradationOptions &opts)
{
    RunMetrics healthy = runOne(knob, opts, /*degraded=*/false);
    RunMetrics degraded = runOne(knob, opts, /*degraded=*/true);

    DegradationResult r;
    r.knob = knob;
    r.profile = opts.profile;
    r.healthy_lc_p99_us = healthy.lc_p99_us;
    r.degraded_lc_p99_us = degraded.lc_p99_us;
    r.healthy_be_gibs = healthy.be_gibs;
    r.degraded_be_gibs = degraded.be_gibs;
    r.healthy_agg_gibs = healthy.agg_gibs;
    r.degraded_agg_gibs = degraded.agg_gibs;

    r.read_retries = degraded.dev.read_retries;
    r.uncorrectable = degraded.dev.uncorrectable;
    r.remapped_blocks = degraded.dev.remapped_blocks;
    r.timeouts = degraded.host.timeouts;
    r.requeues = degraded.host.requeues;
    r.retry_successes = degraded.host.retry_successes;
    r.throttle_ms = nsToMs(degraded.dev.throttle_ns);

    r.latency_preserved =
        r.degraded_lc_p99_us <= 2.0 * r.healthy_lc_p99_us + 100.0;
    r.bandwidth_preserved =
        r.degraded_agg_gibs >= 0.6 * r.healthy_agg_gibs;
    return r;
}

stats::Table
degradationTable(const std::vector<DegradationResult> &results)
{
    stats::Table table({"knob", "profile", "lc_p99_us_h", "lc_p99_us_d",
                        "be_gibs_h", "be_gibs_d", "agg_h", "agg_d",
                        "retries", "timeouts", "requeues", "remaps",
                        "throttle_ms", "lat_ok", "bw_ok"});
    for (const DegradationResult &r : results) {
        table.addRow({knobName(r.knob), fault::profileName(r.profile),
                      fmt(r.healthy_lc_p99_us, "%.1f"),
                      fmt(r.degraded_lc_p99_us, "%.1f"),
                      fmt(r.healthy_be_gibs), fmt(r.degraded_be_gibs),
                      fmt(r.healthy_agg_gibs), fmt(r.degraded_agg_gibs),
                      std::to_string(r.read_retries),
                      std::to_string(r.timeouts),
                      std::to_string(r.requeues),
                      std::to_string(r.remapped_blocks),
                      fmt(r.throttle_ms, "%.1f"),
                      r.latency_preserved ? "yes" : "NO",
                      r.bandwidth_preserved ? "yes" : "NO"});
    }
    return table;
}

} // namespace isol::isolbench
