/**
 * @file
 * Chaos-plane tests: the adversarial tenant catalog (determinism across
 * reruns and pool widths, each adversary's signature behaviour) and the
 * runtime invariant checker (clean runs count checks, the planted
 * io.max bucket corruption is caught).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hh"
#include "isolbench/scenario.hh"
#include "isolbench/sweep.hh"
#include "sim/invariants.hh"
#include "ssd/config.hh"
#include "workload/adversary.hh"
#include "workload/app_profiles.hh"

namespace isol::isolbench
{
namespace
{

/** One-die flash shrunk so GC pressure builds within ~200 ms. */
ssd::SsdConfig
tinyFlash()
{
    ssd::SsdConfig cfg = ssd::samsung980ProLike();
    cfg.user_capacity = 64 * MiB;
    cfg.channels = 1;
    cfg.dies_per_channel = 1;
    cfg.pages_per_block = 32;
    cfg.overprovision = 0.25;
    return cfg;
}

/** Victim + one adversary under `knob`; canonical result payload. */
std::string
adversaryPayload(workload::AdversaryKind kind, Knob knob,
                 bool check_invariants = false)
{
    ScenarioConfig cfg;
    cfg.name = strCat("adv-", workload::adversaryName(kind));
    cfg.knob = knob;
    cfg.num_cores = 4;
    cfg.device = tinyFlash();
    cfg.duration = msToNs(120);
    cfg.warmup = msToNs(30);
    cfg.seed = 7;
    cfg.check_invariants = check_invariants;

    Scenario scenario(cfg);
    uint32_t victim =
        scenario.addApp(workload::lcApp("victim", cfg.duration), "lc");
    uint32_t adv = scenario.addAdversary(kind, "adv");
    scenario.run();

    workload::FioJob &v = scenario.app(victim);
    workload::FioJob &a = scenario.app(adv);
    return strCat(v.totalIos(), ",", v.windowBytes(), ",",
                  v.latency().percentile(99), "|", a.totalIos(), ",",
                  a.windowBytes(), ",", a.flushes(), "|gc=",
                  scenario.ssd(0).gcPagesMoved());
}

TEST(Adversary, CatalogParsesAndNames)
{
    for (workload::AdversaryKind kind : workload::kAllAdversaries) {
        auto parsed =
            workload::parseAdversary(workload::adversaryName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_EQ(workload::parseAdversary("none"),
              workload::AdversaryKind::kNone);
    EXPECT_FALSE(workload::parseAdversary("noise-machine").has_value());
}

TEST(Adversary, EveryKindIsDeterministicAcrossReruns)
{
    for (workload::AdversaryKind kind : workload::kAllAdversaries) {
        std::string a = adversaryPayload(kind, Knob::kNone);
        std::string b = adversaryPayload(kind, Knob::kNone);
        EXPECT_EQ(a, b) << "adversary "
                        << workload::adversaryName(kind);
        EXPECT_NE(a.find('|'), std::string::npos);
    }
}

TEST(Adversary, EveryKindIsDeterministicAcrossPoolWidths)
{
    auto runAll = [](uint32_t jobs) {
        size_t n = std::size(workload::kAllAdversaries);
        return sweep::map<std::string>(
            n,
            [](size_t i) {
                return adversaryPayload(workload::kAllAdversaries[i],
                                        Knob::kIoCost);
            },
            jobs);
    };
    std::vector<std::string> seq = runAll(1);
    std::vector<std::string> pooled = runAll(8);
    EXPECT_EQ(seq, pooled);
}

TEST(Adversary, GcStormForcesGarbageCollection)
{
    ScenarioConfig cfg;
    cfg.name = "gc-storm";
    cfg.knob = Knob::kNone;
    cfg.num_cores = 4;
    cfg.device = tinyFlash();
    cfg.precondition = true;
    cfg.duration = msToNs(250);
    cfg.warmup = msToNs(50);

    Scenario scenario(cfg);
    scenario.addApp(workload::lcApp("victim", cfg.duration), "lc");
    uint32_t adv = scenario.addAdversary(
        workload::AdversaryKind::kGcStorm, "adv");
    scenario.run();

    // The storm's sustained random writes on a preconditioned one-die
    // device must push the FTL into garbage collection.
    EXPECT_GT(scenario.ssd(0).gcPagesMoved(), 0u);
    EXPECT_GT(scenario.app(adv).totalIos(), 0u);
}

TEST(Adversary, FlushStormActuallyFlushes)
{
    ScenarioConfig cfg;
    cfg.name = "flush-storm";
    cfg.num_cores = 4;
    cfg.device = tinyFlash();
    cfg.duration = msToNs(120);
    cfg.warmup = msToNs(30);

    Scenario scenario(cfg);
    uint32_t adv = scenario.addAdversary(
        workload::AdversaryKind::kFlushStorm, "adv");
    scenario.run();
    EXPECT_GT(scenario.app(adv).flushes(), 0u);
}

TEST(Adversary, IoMaxContainsQueueFlooder)
{
    auto victimBytes = [](Knob knob, bool limit) {
        ScenarioConfig cfg;
        cfg.name = "flood";
        cfg.knob = knob;
        cfg.num_cores = 4;
        cfg.device = tinyFlash();
        cfg.duration = msToNs(150);
        cfg.warmup = msToNs(30);

        Scenario scenario(cfg);
        uint32_t victim = scenario.addApp(
            workload::lcApp("victim", cfg.duration), "lc");
        scenario.addAdversary(workload::AdversaryKind::kQueueFlood,
                              "adv");
        if (limit) {
            scenario.tree().writeFile(scenario.group("adv"), "io.max",
                                      "259:0 rbps=33554432");
        }
        scenario.run();
        return scenario.app(victim).windowBytes();
    };

    uint64_t unprotected = victimBytes(Knob::kNone, false);
    uint64_t protected_bytes = victimBytes(Knob::kIoMax, true);
    // Throttling the flooder to 32 MiB/s must hand the victim strictly
    // more bandwidth than the free-for-all baseline.
    EXPECT_GT(protected_bytes, unprotected);
}

TEST(Invariants, CleanAdversarialRunCountsChecks)
{
    ScenarioConfig cfg;
    cfg.name = "inv-clean";
    cfg.knob = Knob::kIoMax;
    cfg.num_cores = 4;
    cfg.device = tinyFlash();
    cfg.duration = msToNs(120);
    cfg.warmup = msToNs(30);
    cfg.check_invariants = true;

    Scenario scenario(cfg);
    scenario.addApp(workload::lcApp("victim", cfg.duration), "lc");
    scenario.addAdversary(workload::AdversaryKind::kQueueFlood, "adv");
    scenario.tree().writeFile(scenario.group("adv"), "io.max",
                              "259:0 rbps=67108864");
    ASSERT_NE(scenario.invariants(), nullptr);
    scenario.run();
    EXPECT_GT(scenario.invariants()->checksPerformed(), 0u);
    // The adversary runs the queue-flood mechanics: a QD ramp from 4
    // up to a 512-deep cap.
    EXPECT_EQ(scenario.app(1).spec().qd_ramp_start, 4u);
    EXPECT_EQ(scenario.app(1).spec().iodepth, 512u);
}

TEST(Invariants, CorruptedIoMaxBucketIsCaught)
{
    ScenarioConfig cfg;
    cfg.name = "inv-corrupt";
    cfg.knob = Knob::kIoMax;
    cfg.num_cores = 4;
    cfg.device = tinyFlash();
    cfg.duration = msToNs(120);
    cfg.warmup = msToNs(30);
    cfg.check_invariants = true;

    Scenario scenario(cfg);
    scenario.addApp(workload::lcApp("victim", cfg.duration), "lc");
    scenario.addAdversary(workload::AdversaryKind::kQueueFlood, "adv");
    scenario.tree().writeFile(scenario.group("adv"), "io.max",
                              "259:0 rbps=67108864");
    scenario.device(0).ioMaxGate()->setDebugCorruptBucket(true);
    EXPECT_THROW(scenario.run(), sim::InvariantViolation);
}

TEST(Invariants, CorruptionGoesUnnoticedWhenCheckingIsOff)
{
    ScenarioConfig cfg;
    cfg.name = "inv-off";
    cfg.knob = Knob::kIoMax;
    cfg.num_cores = 4;
    cfg.device = tinyFlash();
    cfg.duration = msToNs(120);
    cfg.warmup = msToNs(30);
    cfg.check_invariants = false;

    Scenario scenario(cfg);
    scenario.addApp(workload::lcApp("victim", cfg.duration), "lc");
    scenario.addAdversary(workload::AdversaryKind::kQueueFlood, "adv");
    scenario.tree().writeFile(scenario.group("adv"), "io.max",
                              "259:0 rbps=67108864");
    scenario.device(0).ioMaxGate()->setDebugCorruptBucket(true);
    EXPECT_EQ(scenario.invariants(), nullptr);
    scenario.run(); // must not throw: hooks are null-pointer tests
    EXPECT_GT(scenario.aggregateGiBs(), 0.0);
}

} // namespace
} // namespace isol::isolbench
