/**
 * @file
 * Desideratum D2 — proportional fairness (paper §VI-A, Figs. 5 and 6).
 *
 * Fairness is Jain's index over per-cgroup bandwidth, weight-normalised.
 * Each cgroup runs four batch-apps (enough to saturate the SSD). Cases:
 *  - uniform weights while scaling cgroups 2..16 (Q3);
 *  - linearly increasing weights (Q4), mapped per knob: io.weight
 *    (io.cost), io.bfq.weight (BFQ), io.prio.class tiers (MQ-DL),
 *    latency targets (io.latency), and bandwidth fractions (io.max);
 *  - non-uniform workloads (Q5): half the cgroups use 256 KiB requests,
 *    sequential access, or 4 KiB random writes (GC interference).
 */

#ifndef ISOL_ISOLBENCH_D2_FAIRNESS_HH
#define ISOL_ISOLBENCH_D2_FAIRNESS_HH

#include <cstdint>
#include <vector>

#include "isolbench/scenario.hh"

namespace isol::isolbench
{

/** Workload mix across cgroups. */
enum class FairnessMix : uint8_t
{
    kUniform, //!< all groups: 4 KiB random reads
    kReqSize, //!< half the groups use 256 KiB requests
    kPattern, //!< half the groups read sequentially
    kReadWrite, //!< half the groups write (GC interference)
};

const char *fairnessMixName(FairnessMix mix);

/** Options for one fairness experiment. */
struct FairnessOptions
{
    uint32_t apps_per_cgroup = 4;
    uint32_t num_cores = 20;
    uint32_t repeats = 3; //!< paper uses 5; runs are averaged
    SimTime duration = msToNs(1500);
    SimTime warmup = msToNs(300);
    uint64_t seed = 1;

    /**
     * Optional chaos tenant: when not kNone, an extra cgroup "adv" runs
     * this adversary next to the measured groups (its bandwidth is
     * excluded from the fairness statistics — the question is how well
     * the knob protects the well-behaved groups from it).
     */
    workload::AdversaryKind adversary = workload::AdversaryKind::kNone;
};

/** Aggregated result over repeats. */
struct FairnessResult
{
    Knob knob;
    uint32_t cgroups = 0;
    bool weighted = false;
    FairnessMix mix = FairnessMix::kUniform;
    double jain_mean = 0.0;
    double jain_std = 0.0;
    double agg_gibs_mean = 0.0;
    /** Per-cgroup mean bandwidth (GiB/s), last repeat. */
    std::vector<double> per_group_gibs;
};

/**
 * Run one fairness case: `cgroups` groups under `knob`, optionally with
 * linearly increasing weights, with the given workload mix.
 */
FairnessResult runFairness(Knob knob, uint32_t cgroups, bool weighted,
                           FairnessMix mix,
                           const FairnessOptions &opts = {});

/**
 * Configure per-group "weights" for a knob as the paper does (§VI-A).
 * weight of group g (0-based) is g+1. Exposed for tests.
 */
void applyFairnessWeights(Scenario &scenario,
                          const std::vector<std::string> &group_names,
                          Knob knob);

} // namespace isol::isolbench

#endif // ISOL_ISOLBENCH_D2_FAIRNESS_HH
