#include "isolbench/d2_fairness.hh"

#include "common/logging.hh"
#include "isolbench/sweep.hh"
#include "stats/fairness.hh"
#include "stats/summary.hh"

namespace isol::isolbench
{

const char *
fairnessMixName(FairnessMix mix)
{
    switch (mix) {
      case FairnessMix::kUniform: return "uniform";
      case FairnessMix::kReqSize: return "req-size";
      case FairnessMix::kPattern: return "access-pattern";
      case FairnessMix::kReadWrite: return "read-write";
    }
    return "?";
}

void
applyFairnessWeights(Scenario &scenario,
                     const std::vector<std::string> &group_names,
                     Knob knob)
{
    auto n = static_cast<uint32_t>(group_names.size());
    uint64_t weight_sum = 0;
    for (uint32_t g = 0; g < n; ++g)
        weight_sum += g + 1;

    for (uint32_t g = 0; g < n; ++g) {
        cgroup::Cgroup &cg = scenario.group(group_names[g]);
        uint32_t weight = g + 1;
        switch (knob) {
          case Knob::kNone:
          case Knob::kKyber: // no cgroup weight knob
            break;
          case Knob::kIoCost:
            // io.weight range 1-10000: scale by 100 for headroom.
            scenario.tree().writeFile(cg, "io.weight",
                                      strCat(weight * 100));
            break;
          case Knob::kBfq:
            // io.bfq.weight range 1-1000: scale by 50 (16 * 50 = 800).
            scenario.tree().writeFile(cg, "io.bfq.weight",
                                      strCat(weight * 50));
            break;
          case Knob::kMqDeadline: {
            // Approximate weights with the three priority classes.
            const char *cls = "best-effort";
            if (weight * 3 <= n)
                cls = "idle";
            else if (weight * 3 > 2 * n)
                cls = "promote-to-rt";
            scenario.tree().writeFile(cg, "io.prio.class", cls);
            break;
          }
          case Knob::kIoLatency: {
            // Lower target = higher priority: target ~ 1/weight.
            uint64_t target_us = 1200 / weight;
            scenario.tree().writeFile(
                cg, "io.latency", strCat("259:0 target=", target_us));
            break;
          }
          case Knob::kIoMax: {
            // maximum = weight/total * max read bandwidth (paper §VI-A).
            double max_read_bw = 2.8 * static_cast<double>(GiB);
            auto rbps = static_cast<uint64_t>(
                max_read_bw * weight / static_cast<double>(weight_sum));
            scenario.tree().writeFile(cg, "io.max",
                                      strCat("259:0 rbps=", rbps));
            break;
          }
        }
    }
}

FairnessResult
runFairness(Knob knob, uint32_t cgroups, bool weighted, FairnessMix mix,
            const FairnessOptions &opts)
{
    if (cgroups == 0)
        fatal("runFairness: need at least one cgroup");
    if (opts.repeats == 0)
        fatal("runFairness: need at least one repeat");

    FairnessResult result;
    result.knob = knob;
    result.cgroups = cgroups;
    result.weighted = weighted;
    result.mix = mix;

    /** One repeat's measurements, collected by repeat index. */
    struct RepeatResult
    {
        double jain = 0.0;
        double agg_gibs = 0.0;
        std::vector<double> group_bw;
    };

    std::string point_name = strCat("d2-", knobName(knob), "-", cgroups,
                                    weighted ? "-weighted-" : "-uniform-",
                                    fairnessMixName(mix));

    // Every repeat owns its whole simulated system and differs only in
    // seed, so the multi-seed std-dev loop fans out across the sweep
    // pool; the summaries are folded in repeat order afterwards to keep
    // the floating-point results identical to a sequential run. A
    // failed repeat fails the whole point: partial repeat statistics
    // would silently skew the std-devs.
    std::vector<RepeatResult> reps = sweep::map<RepeatResult>(
        opts.repeats, [&](size_t rep) {
        ScenarioConfig cfg;
        cfg.name = point_name;
        cfg.knob = knob;
        cfg.num_cores = opts.num_cores;
        cfg.num_devices = 1;
        cfg.duration = opts.duration;
        cfg.warmup = opts.warmup;
        cfg.seed = opts.seed + rep * 7717;
        // Paper SS III: the SS VI isolation experiments use libaio
        // (fio + io_uring misbehaved when throttled).
        cfg.engine = host::libaioEngine();
        cfg.precondition = mix == FairnessMix::kReadWrite;
        // Fairness experiments use the achievable io.cost model (§VI-A).
        cfg.iocost_achievable_model = true;

        Scenario scenario(cfg);
        std::vector<std::string> group_names;
        for (uint32_t g = 0; g < cgroups; ++g) {
            std::string group = strCat("cg", g);
            group_names.push_back(group);
            bool alt = g >= cgroups / 2; // second half gets the variant
            for (uint32_t a = 0; a < opts.apps_per_cgroup; ++a) {
                workload::JobSpec spec = workload::batchApp(
                    strCat(group, "-app", a), cfg.duration);
                switch (mix) {
                  case FairnessMix::kUniform:
                    break;
                  case FairnessMix::kReqSize:
                    if (alt)
                        spec.block_size = 256 * KiB;
                    break;
                  case FairnessMix::kPattern:
                    if (alt)
                        spec.pattern = AccessPattern::kSequential;
                    break;
                  case FairnessMix::kReadWrite:
                    if (alt) {
                        spec.op = OpType::kWrite;
                        spec.read_fraction = 0.0;
                    }
                    break;
                }
                scenario.addApp(std::move(spec), group);
            }
        }

        if (opts.adversary != workload::AdversaryKind::kNone)
            scenario.addAdversary(opts.adversary, "adv");

        if (weighted) {
            applyFairnessWeights(scenario, group_names, knob);
        } else if (knob == Knob::kIoMax) {
            // Uniform io.max: equal fractions of the read bandwidth.
            for (const std::string &name : group_names) {
                auto rbps = static_cast<uint64_t>(
                    2.8 * static_cast<double>(GiB) / cgroups);
                scenario.tree().writeFile(scenario.group(name), "io.max",
                                          strCat("259:0 rbps=", rbps,
                                                 " wbps=", rbps));
            }
        } else if (knob == Knob::kIoLatency) {
            // Uniform targets for every group.
            for (const std::string &name : group_names) {
                scenario.tree().writeFile(scenario.group(name),
                                          "io.latency",
                                          "259:0 target=300");
            }
        }

        scenario.run();

        // Per-cgroup bandwidth. The adversary tenant (appended after the
        // measured groups) is excluded from the fairness statistics.
        RepeatResult out;
        out.group_bw.assign(cgroups, 0.0);
        uint32_t measured = cgroups * opts.apps_per_cgroup;
        for (uint32_t i = 0; i < measured; ++i)
            out.group_bw[i / opts.apps_per_cgroup] += scenario.appGiBs(i);

        std::vector<double> weights(cgroups, 1.0);
        if (weighted) {
            for (uint32_t g = 0; g < cgroups; ++g)
                weights[g] = static_cast<double>(g + 1);
        }
        out.jain = stats::weightedJainIndex(out.group_bw, weights);
        out.agg_gibs = scenario.aggregateGiBs();
        return out;
    });

    stats::Summary jain_summary;
    stats::Summary agg_summary;
    for (const RepeatResult &rep : reps) {
        jain_summary.add(rep.jain);
        agg_summary.add(rep.agg_gibs);
    }
    result.per_group_gibs = reps.back().group_bw;

    result.jain_mean = jain_summary.mean();
    result.jain_std = jain_summary.stddev();
    result.agg_gibs_mean = agg_summary.mean();
    return result;
}

} // namespace isol::isolbench
