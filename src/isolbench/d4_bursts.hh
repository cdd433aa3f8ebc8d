/**
 * @file
 * Desideratum D4 — performance isolation during bursts
 * (paper §VI-C, Q10).
 *
 * Four BE-apps run continuously; the priority app starts mid-run (the
 * burst). We measure the response time: how long after the burst start
 * the I/O control mechanism gives the priority app its entitled
 * performance (bandwidth for a batch-app, tail latency for an LC-app).
 *
 * Expected shape (O10): io.latency needs seconds (QD can only halve once
 * per 500 ms window: 1024 -> 1 is ~10 windows); io.cost, io.max, and the
 * I/O schedulers respond in milliseconds.
 */

#ifndef ISOL_ISOLBENCH_D4_BURSTS_HH
#define ISOL_ISOLBENCH_D4_BURSTS_HH

#include "isolbench/d3_tradeoffs.hh"
#include "isolbench/scenario.hh"

namespace isol::isolbench
{

/** Options for a burst-response run. */
struct BurstOptions
{
    uint32_t num_cores = 10;
    SimTime burst_start = msToNs(1500); //!< priority app start
    SimTime duration = secToNs(int64_t{8}); //!< total run
    SimTime bin = msToNs(20); //!< detection resolution
    double threshold = 0.8; //!< fraction of steady state to reach
    uint64_t seed = 1;
};

/** Result of one burst-response measurement. */
struct BurstResult
{
    Knob knob;
    PriorityAppKind kind;
    /** ms from burst start until the priority app reaches threshold x
     *  its steady-state performance; negative when never reached. */
    double response_ms = -1.0;
    /** The steady-state reference value (GiB/s or P99 us). */
    double steady_value = 0.0;
};

/**
 * Measure the burst response time of `knob` for the given priority-app
 * kind, with the knob configured for strong prioritization (as the best
 * D3 configurations do).
 */
BurstResult runBurstResponse(Knob knob, PriorityAppKind kind,
                             const BurstOptions &opts = {});

} // namespace isol::isolbench

#endif // ISOL_ISOLBENCH_D4_BURSTS_HH
