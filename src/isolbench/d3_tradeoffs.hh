/**
 * @file
 * Desideratum D3 — prioritization/utilization trade-offs
 * (paper §VI-B, Fig. 7).
 *
 * One priority app (a batch-app wanting bandwidth, or an LC-app wanting
 * low P99) runs against 4 BE-apps that saturate the SSD on their own.
 * For each knob we sweep its configuration space and emit
 * (aggregate bandwidth, priority-app metric) points — the Pareto fronts
 * of Fig. 7. BE-app workload variants stress flash idiosyncrasies:
 * random/sequential 4 KiB reads, 256 KiB reads, and 4 KiB writes.
 */

#ifndef ISOL_ISOLBENCH_D3_TRADEOFFS_HH
#define ISOL_ISOLBENCH_D3_TRADEOFFS_HH

#include <string>
#include <vector>

#include "isolbench/scenario.hh"

namespace isol::isolbench
{

/** What the prioritized app is. */
enum class PriorityAppKind : uint8_t
{
    kBatch, //!< wants bandwidth (Fig. 7a-d)
    kLc, //!< wants low P99 latency (Fig. 7e-h)
};

const char *priorityAppKindName(PriorityAppKind kind);

/** BE-app workload variants (Fig. 7b/c/d line styles). */
enum class BeWorkload : uint8_t
{
    kRand4k,
    kSeq4k,
    kRand256k,
    kRandWrite4k,
};

const char *beWorkloadName(BeWorkload be);

/** BE-apps sharing the best-effort cgroup in a D3 trade-off and a D4
 *  burst run: 4 saturate the SSD on their own. */
constexpr uint32_t kNumBeApps = 4;

/** Options for a trade-off sweep. */
struct TradeoffOptions
{
    uint32_t num_cores = 10;
    SimTime duration = msToNs(1200);
    SimTime warmup = msToNs(300);
    uint64_t seed = 1;
    /** Sweep-resolution divisor: 1 = paper-resolution, 2 = half, ... */
    uint32_t coarsen = 1;
};

/** One point of a Pareto sweep. */
struct TradeoffPoint
{
    std::string config; //!< knob setting, e.g. "weight=250"
    double agg_gibs = 0.0; //!< aggregated bandwidth (x axis)
    double priority_gibs = 0.0; //!< batch priority app bandwidth
    double priority_p99_us = 0.0; //!< LC priority app P99
};

/**
 * Sweep `knob`'s configuration space for the given priority-app kind and
 * BE workload, returning one point per configuration.
 */
std::vector<TradeoffPoint> runTradeoffSweep(
    Knob knob, PriorityAppKind kind, BeWorkload be,
    const TradeoffOptions &opts = {});

} // namespace isol::isolbench

#endif // ISOL_ISOLBENCH_D3_TRADEOFFS_HH
