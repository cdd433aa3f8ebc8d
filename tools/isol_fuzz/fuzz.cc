#include "fuzz.hh"

#include <cstdio>
#include <iterator>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "isolbench/scenario.hh"
#include "isolbench/sweep.hh"
#include "sim/invariants.hh"
#include "workload/adversary.hh"
#include "workload/app_profiles.hh"

namespace isol::fuzz
{

namespace
{

using isolbench::Knob;
using isolbench::Scenario;
using isolbench::ScenarioConfig;

/**
 * Shrunk flash device: small enough that GC-storm adversaries reach
 * steady-state garbage collection within a ~100 ms scenario, big enough
 * that multi-tenant mixes do not trivially serialise on one die.
 */
ssd::SsdConfig
fuzzFlash(Rng &rng)
{
    ssd::SsdConfig cfg = ssd::samsung980ProLike();
    cfg.user_capacity = (64u + 64u * rng.below(3)) * MiB;
    cfg.channels = static_cast<uint32_t>(rng.between(1, 2));
    cfg.dies_per_channel = static_cast<uint32_t>(rng.between(1, 2));
    cfg.pages_per_block = 32;
    cfg.overprovision = 0.25;
    return cfg;
}

/** Random per-cgroup knob settings, in kernel sysfs syntax. */
void
applyKnobSettings(Scenario &scenario,
                  const std::vector<std::string> &groups, Knob knob,
                  Rng &rng)
{
    for (const std::string &name : groups) {
        cgroup::Cgroup &cg = scenario.group(name);
        switch (knob) {
          case Knob::kNone:
          case Knob::kKyber:
            break;
          case Knob::kIoCost:
            scenario.tree().writeFile(
                cg, "io.weight", strCat(rng.between(1, 10000)));
            break;
          case Knob::kBfq:
            scenario.tree().writeFile(
                cg, "io.bfq.weight", strCat(rng.between(1, 1000)));
            break;
          case Knob::kMqDeadline: {
            static constexpr const char *kClasses[] = {
                "idle", "best-effort", "promote-to-rt"};
            scenario.tree().writeFile(cg, "io.prio.class",
                                      kClasses[rng.below(3)]);
            break;
          }
          case Knob::kIoLatency:
            scenario.tree().writeFile(
                cg, "io.latency",
                strCat("259:0 target=", rng.between(100, 2000)));
            break;
          case Knob::kIoMax: {
            // Low enough that the token buckets actually throttle a
            // saturating tenant on the shrunk device.
            uint64_t rbps = (32 + 32 * rng.below(8)) * MiB;
            scenario.tree().writeFile(cg, "io.max",
                                      strCat("259:0 rbps=", rbps,
                                             " wbps=", rbps));
            break;
          }
        }
    }
}

} // namespace

ScenarioOutcome
runOne(uint64_t seed, const FuzzOptions &opts)
{
    ScenarioOutcome out;
    try {
        // Derivation RNG: consumed in a fixed order so one seed always
        // maps to one scenario, independent of run order or pool width.
        Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);

        ScenarioConfig cfg;
        cfg.name = strCat("fuzz-", seed);
        cfg.knob = isolbench::kAllKnobs[rng.below(
            std::size(isolbench::kAllKnobs))];
        // The planted bucket bug lives in the io.max gate, which the
        // scenario only builds for the io.max knob — force it so every
        // mutated seed exercises the corrupted path.
        if (opts.mutate_bucket)
            cfg.knob = Knob::kIoMax;
        cfg.num_cores = static_cast<uint32_t>(rng.between(2, 6));
        cfg.device = fuzzFlash(rng);
        cfg.duration = msToNs(static_cast<int64_t>(rng.between(80, 200)));
        cfg.warmup = cfg.duration / 4;
        cfg.seed = seed;
        cfg.check_invariants = opts.check_invariants;

        Scenario scenario(cfg);

        // Tenant 0 is always a latency-critical victim; the rest are a
        // seed-derived mix of saturating batch apps and adversaries.
        std::vector<std::string> groups{"victim"};
        std::vector<uint32_t> apps;
        apps.push_back(scenario.addApp(
            workload::lcApp("victim", cfg.duration), "victim"));
        uint64_t tenants = rng.between(1, 3);
        for (uint64_t t = 0; t < tenants; ++t) {
            std::string group = strCat("cg", t);
            groups.push_back(group);
            if (rng.chance(0.5)) {
                workload::AdversaryKind kind = workload::kAllAdversaries
                    [rng.below(std::size(workload::kAllAdversaries))];
                apps.push_back(scenario.addAdversary(kind, group));
            } else {
                workload::JobSpec spec = workload::batchApp(
                    strCat(group, "-app"), cfg.duration);
                spec.iodepth = static_cast<uint32_t>(
                    uint64_t{1} << rng.between(3, 7));
                if (rng.chance(0.3)) {
                    spec.op = OpType::kWrite;
                    spec.read_fraction = 0.0;
                }
                apps.push_back(scenario.addApp(std::move(spec), group));
            }
        }

        applyKnobSettings(scenario, groups, cfg.knob, rng);
        if (opts.mutate_bucket)
            scenario.device(0).ioMaxGate()->setDebugCorruptBucket(true);
        scenario.run();

        // Canonical payload: integer-dominant facts only, so equality is
        // byte equality and any scheduling nondeterminism shows up.
        std::string payload;
        for (uint32_t i : apps) {
            workload::FioJob &job = scenario.app(i);
            payload += strCat(job.spec().name, ":", job.totalIos(), ":",
                              job.windowBytes(), ":",
                              job.latency().percentile(50), ":",
                              job.latency().percentile(99), ";");
        }
        payload += strCat(
            "gc=", scenario.ssd(0).gcPagesMoved(), ",checks=",
            scenario.invariants() != nullptr
                ? scenario.invariants()->checksPerformed()
                : 0);
        out.payload = std::move(payload);
    } catch (const sim::InvariantViolation &e) {
        out.invariant_trip = true;
        out.error = e.what();
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

std::string
reproLine(uint64_t seed, const FuzzOptions &opts)
{
    std::string line = strCat("isol_fuzz --seeds 1 --seed-base ", seed,
                              " --jobs ", opts.jobs);
    if (opts.check_invariants)
        line += " --check-invariants";
    if (opts.mutate_bucket)
        line += " --mutate bucket";
    if (opts.expect_violations)
        line += " --expect-violations";
    return line;
}

int
runCampaign(const FuzzOptions &opts)
{
    if (opts.seeds == 0) {
        std::fprintf(stderr, "isol_fuzz: nothing to do (--seeds 0)\n");
        return 2;
    }

    // Pass 1+2: every seed twice, same thread, back to back — catches
    // leaked process-global state (a mutable global or static).
    std::vector<ScenarioOutcome> first(opts.seeds);
    std::vector<ScenarioOutcome> second(opts.seeds);
    for (uint64_t i = 0; i < opts.seeds; ++i) {
        first[i] = runOne(opts.seed_base + i, opts);
        second[i] = runOne(opts.seed_base + i, opts);
    }

    // Pass 3: the whole corpus through the parallel sweep pool — catches
    // cross-thread interference and pool-order dependence.
    std::vector<ScenarioOutcome> pooled =
        isolbench::sweep::map<ScenarioOutcome>(
            opts.seeds,
            [&](size_t i) {
                return runOne(opts.seed_base + i, opts);
            },
            opts.jobs);

    uint64_t divergences = 0;
    uint64_t trips = 0;
    uint64_t errors = 0;
    for (uint64_t i = 0; i < opts.seeds; ++i) {
        uint64_t seed = opts.seed_base + i;
        const ScenarioOutcome &a = first[i];
        bool bad = false;
        if (a.invariant_trip || second[i].invariant_trip ||
            pooled[i].invariant_trip) {
            ++trips;
            if (!opts.expect_violations) {
                bad = true;
                std::fprintf(stderr,
                             "isol_fuzz: seed %llu: invariant trip: %s\n",
                             static_cast<unsigned long long>(seed),
                             (!a.error.empty() ? a.error
                              : !second[i].error.empty()
                                  ? second[i].error
                                  : pooled[i].error)
                                 .c_str());
            }
        } else if (!a.error.empty()) {
            ++errors;
            bad = true;
            std::fprintf(stderr, "isol_fuzz: seed %llu: error: %s\n",
                         static_cast<unsigned long long>(seed),
                         a.error.c_str());
        } else if (a.payload != second[i].payload) {
            ++divergences;
            bad = true;
            std::fprintf(stderr,
                         "isol_fuzz: seed %llu: rerun divergence:\n"
                         "  run1: %s\n  run2: %s\n",
                         static_cast<unsigned long long>(seed),
                         a.payload.c_str(), second[i].payload.c_str());
        } else if (a.payload != pooled[i].payload) {
            ++divergences;
            bad = true;
            std::fprintf(stderr,
                         "isol_fuzz: seed %llu: --jobs %u divergence:\n"
                         "  sequential: %s\n  pooled:     %s\n",
                         static_cast<unsigned long long>(seed), opts.jobs,
                         a.payload.c_str(), pooled[i].payload.c_str());
        }
        if (bad || (opts.expect_violations && !a.invariant_trip)) {
            std::fprintf(stderr, "  repro: %s\n",
                         reproLine(seed, opts).c_str());
        }
    }

    std::printf("isol_fuzz: %llu seeds, %llu divergences, %llu errors, "
                "%llu invariant trips\n",
                static_cast<unsigned long long>(opts.seeds),
                static_cast<unsigned long long>(divergences),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(trips));

    if (opts.expect_violations) {
        if (trips == opts.seeds && divergences == 0 && errors == 0)
            return 0;
        std::fprintf(stderr,
                     "isol_fuzz: expected every seed to trip an "
                     "invariant; only %llu/%llu did\n",
                     static_cast<unsigned long long>(trips),
                     static_cast<unsigned long long>(opts.seeds));
        return 1;
    }
    return divergences == 0 && errors == 0 && trips == 0 ? 0 : 1;
}

} // namespace isol::fuzz
