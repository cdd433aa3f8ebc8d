/**
 * @file
 * Desideratum D1 — isolation overhead and scalability (paper §V).
 *
 * Two experiment families:
 *  - Q1 (Fig. 3): latency overhead and CPU saturation when scaling LC-apps
 *    (4 KiB randread QD1) on a single core from 1 to 256;
 *  - Q2 (Fig. 4): bandwidth and CPU scalability when scaling batch-apps
 *    (4 KiB randread QD256) from 1 to 17 on 1 and 7 SSDs with 10 cores.
 *
 * Knobs are configured so the control mechanism itself never throttles
 * (§V): io.max limits and io.latency targets far beyond need, an io.cost
 * model beyond device saturation, BFQ slice_idle disabled.
 */

#ifndef ISOL_ISOLBENCH_D1_OVERHEAD_HH
#define ISOL_ISOLBENCH_D1_OVERHEAD_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "isolbench/scenario.hh"

namespace isol::isolbench
{

/** Common options for the D1 runs. */
struct D1Options
{
    SimTime duration = msToNs(1500);
    SimTime warmup = msToNs(300);
    uint64_t seed = 1;
};

/** Result of one LC-app scaling point (one knob, one app count). */
struct LcScalingResult
{
    Knob knob;
    uint32_t apps;
    double p99_us = 0.0;
    double cpu_util = 0.0; //!< single core, [0,1]
    double ctx_per_io = 0.0;
    /** Merged completion-latency CDF across apps (us, probability). */
    std::vector<std::pair<double, double>> cdf;
};

/**
 * Run `apps` LC-apps on a single core under `knob` (Fig. 3 point).
 */
LcScalingResult runLcScaling(Knob knob, uint32_t apps,
                             const D1Options &opts = {});

/** Result of one batch-app scaling point. */
struct BatchScalingResult
{
    Knob knob;
    uint32_t apps;
    uint32_t ssds;
    double agg_gibs = 0.0;
    double cpu_util = 0.0; //!< over 10 cores, [0,1]
};

/**
 * Run `apps` batch-apps over `ssds` SSDs (round-robin) with 10 cores
 * under `knob` (Fig. 4 point).
 */
BatchScalingResult runBatchScaling(Knob knob, uint32_t apps, uint32_t ssds,
                                   const D1Options &opts = {});

/**
 * Apply the D1 "knob must not throttle" configuration to a scenario
 * config (slice_idle=0 etc.) — exposed for reuse by other runners.
 */
void applyOverheadKnobDefaults(ScenarioConfig &cfg);

/**
 * Give every app group a no-op limit for its knob (io.max beyond
 * saturation, io.latency multi-second target). Must run after apps are
 * added and before run().
 */
void applyNoopGroupLimits(Scenario &scenario);

} // namespace isol::isolbench

#endif // ISOL_ISOLBENCH_D1_OVERHEAD_HH
