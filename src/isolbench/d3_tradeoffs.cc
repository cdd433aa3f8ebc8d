#include "isolbench/d3_tradeoffs.hh"

#include <algorithm>

#include "common/logging.hh"
#include "isolbench/sweep.hh"

namespace isol::isolbench
{

const char *
priorityAppKindName(PriorityAppKind kind)
{
    return kind == PriorityAppKind::kBatch ? "batch" : "lc";
}

const char *
beWorkloadName(BeWorkload be)
{
    switch (be) {
      case BeWorkload::kRand4k: return "rand-4k";
      case BeWorkload::kSeq4k: return "seq-4k";
      case BeWorkload::kRand256k: return "rand-256k";
      case BeWorkload::kRandWrite4k: return "randwrite-4k";
    }
    return "?";
}

namespace
{

/** One knob configuration applied to the (priority, BE) group pair. */
struct KnobSetting
{
    std::string label;
    std::function<void(Scenario &, cgroup::Cgroup &, cgroup::Cgroup &)>
        apply;
};

workload::JobSpec
beSpec(BeWorkload be, SimTime duration, uint32_t index)
{
    workload::JobSpec spec =
        workload::beApp(strCat("be", index), duration);
    switch (be) {
      case BeWorkload::kRand4k:
        break;
      case BeWorkload::kSeq4k:
        spec.pattern = AccessPattern::kSequential;
        break;
      case BeWorkload::kRand256k:
        spec.block_size = 256 * KiB;
        spec.iodepth = 64;
        break;
      case BeWorkload::kRandWrite4k:
        spec.op = OpType::kWrite;
        spec.read_fraction = 0.0;
        break;
    }
    return spec;
}

/** Build the per-knob configuration sweep (paper §VI-B). */
std::vector<KnobSetting>
buildSweep(Knob knob, PriorityAppKind kind, uint32_t coarsen)
{
    std::vector<KnobSetting> sweep;
    uint32_t step_mult = std::max(1u, coarsen);

    switch (knob) {
      case Knob::kNone:
      case Knob::kKyber: {
        // No cgroup configuration to sweep: a single point.
        sweep.push_back({knobName(knob), [](Scenario &, cgroup::Cgroup &,
                                            cgroup::Cgroup &) {}});
        break;
      }
      case Knob::kMqDeadline: {
        // All io.prio.class permutations between priority and BE app.
        const char *classes[] = {"promote-to-rt", "best-effort", "idle"};
        for (const char *prio_cls : classes) {
            for (const char *be_cls : classes) {
                sweep.push_back(
                    {strCat("prio=", prio_cls, ",be=", be_cls),
                     [prio_cls, be_cls](Scenario &s, cgroup::Cgroup &prio,
                                        cgroup::Cgroup &be) {
                         s.tree().writeFile(prio, "io.prio.class",
                                            prio_cls);
                         s.tree().writeFile(be, "io.prio.class", be_cls);
                     }});
            }
        }
        break;
      }
      case Knob::kBfq: {
        // io.bfq.weight 1..1000 in steps of 25 for the priority app.
        for (uint32_t w = 1; w <= 1000; w += 25 * step_mult) {
            sweep.push_back(
                {strCat("weight=", w),
                 [w](Scenario &s, cgroup::Cgroup &prio, cgroup::Cgroup &) {
                     s.tree().writeFile(prio, "io.bfq.weight", strCat(w));
                 }});
        }
        break;
      }
      case Knob::kIoLatency: {
        // Priority target 75 us .. 1.2 ms in steps of 25 us.
        for (uint64_t t = 75; t <= 1200; t += 25 * step_mult) {
            sweep.push_back(
                {strCat("target=", t, "us"),
                 [t](Scenario &s, cgroup::Cgroup &prio, cgroup::Cgroup &) {
                     s.tree().writeFile(prio, "io.latency",
                                        strCat("259:0 target=", t));
                 }});
        }
        break;
      }
      case Knob::kIoMax: {
        // BE-app maximum 80 MiB/s .. 2.3 GiB/s in steps of 80 MiB/s,
        // plus the uncapped end of the spectrum.
        for (uint64_t mib = 80; mib <= 2355; mib += 80 * step_mult) {
            uint64_t bps = mib * MiB;
            sweep.push_back(
                {strCat("be-max=", mib, "MiB/s"),
                 [bps](Scenario &s, cgroup::Cgroup &, cgroup::Cgroup &be) {
                     s.tree().writeFile(be, "io.max",
                                        strCat("259:0 rbps=", bps,
                                               " wbps=", bps));
                 }});
        }
        sweep.push_back({"be-max=max",
                         [](Scenario &s, cgroup::Cgroup &,
                            cgroup::Cgroup &be) {
                             s.tree().writeFile(
                                 be, "io.max",
                                 "259:0 rbps=max wbps=max");
                         }});
        break;
      }
      case Knob::kIoCost: {
        // io.weight=10000 for the priority app; sweep qos min (batch)
        // and additionally the latency target (LC).
        if (kind == PriorityAppKind::kBatch) {
            for (uint32_t min = 10; min <= 100; min += 10 * step_mult) {
                sweep.push_back(
                    {strCat("qos-min=", min),
                     [min](Scenario &s, cgroup::Cgroup &prio,
                           cgroup::Cgroup &) {
                         s.tree().writeFile(prio, "io.weight", "10000");
                         cgroup::IoCostQos qos = paperCostQos();
                         qos.rpct = 99.0;
                         qos.rlat = usToNs(500);
                         qos.wpct = 99.0;
                         qos.wlat = usToNs(1000);
                         qos.vrate_min = min;
                         s.tree().setCostQos(0, qos);
                     }});
            }
        } else {
            for (uint64_t lat = 100; lat <= 1000; lat += 100 * step_mult) {
                for (uint32_t min : {25u, 50u, 75u}) {
                    sweep.push_back(
                        {strCat("qos-min=", min, ",rlat=", lat, "us"),
                         [min, lat](Scenario &s, cgroup::Cgroup &prio,
                                    cgroup::Cgroup &) {
                             s.tree().writeFile(prio, "io.weight",
                                                "10000");
                             cgroup::IoCostQos qos = paperCostQos();
                             qos.rpct = 99.0;
                             qos.rlat = usToNs(static_cast<int64_t>(lat));
                             qos.vrate_min = static_cast<double>(min);
                             s.tree().setCostQos(0, qos);
                         }});
                }
            }
        }
        break;
      }
    }
    return sweep;
}

} // namespace

std::vector<TradeoffPoint>
runTradeoffSweep(Knob knob, PriorityAppKind kind, BeWorkload be,
                 const TradeoffOptions &opts)
{
    std::vector<KnobSetting> settings = buildSweep(knob, kind,
                                                   opts.coarsen);

    // io.latency acts through 500 ms windows (one QD halving each), so
    // its configurations need several seconds to reach their operating
    // point; the other knobs settle within milliseconds.
    SimTime duration = opts.duration;
    SimTime warmup = opts.warmup;
    if (knob == Knob::kIoLatency) {
        duration = std::max<SimTime>(duration, secToNs(int64_t{6}));
        warmup = duration * 2 / 3;
    }

    // Each configuration is an independent simulation; fan the grid out
    // across the sweep pool, results landing in config order.
    return sweep::map<TradeoffPoint>(settings.size(), [&](size_t idx) {
        const KnobSetting &setting = settings[idx];
        ScenarioConfig cfg;
        cfg.name = strCat("d3-", knobName(knob), "-",
                          priorityAppKindName(kind), "-",
                          beWorkloadName(be), "-", setting.label);
        cfg.knob = knob;
        cfg.num_cores = opts.num_cores;
        cfg.num_devices = 1;
        cfg.duration = duration;
        cfg.warmup = warmup;
        cfg.seed = opts.seed;
        // Paper SS III: SS VI experiments use libaio when throttling.
        cfg.engine = host::libaioEngine();
        cfg.precondition = be == BeWorkload::kRandWrite4k;
        cfg.iocost_achievable_model = true;

        Scenario scenario(cfg);

        // Priority app.
        uint32_t prio_idx;
        if (kind == PriorityAppKind::kBatch) {
            workload::JobSpec spec =
                workload::batchApp("prio", cfg.duration);
            prio_idx = scenario.addApp(std::move(spec), "prio");
        } else {
            workload::JobSpec spec = workload::lcApp("prio", cfg.duration);
            prio_idx = scenario.addApp(std::move(spec), "prio");
        }
        // BE-apps (all in one best-effort cgroup).
        for (uint32_t i = 0; i < opts.num_be_apps; ++i)
            scenario.addApp(beSpec(be, cfg.duration, i), "be");

        setting.apply(scenario, scenario.appGroup(prio_idx),
                      scenario.group("be"));
        scenario.run();

        TradeoffPoint point;
        point.config = setting.label;
        point.agg_gibs = scenario.aggregateGiBs();
        point.priority_gibs = scenario.appGiBs(prio_idx);
        point.priority_p99_us =
            nsToUs(scenario.app(prio_idx).latency().percentile(99));
        return point;
    });
}

} // namespace isol::isolbench
