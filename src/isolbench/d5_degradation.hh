/**
 * @file
 * Desideratum D5 (extension) — performance isolation under device
 * degradation.
 *
 * The paper evaluates every cgroup I/O knob on healthy devices; D5 asks
 * whether the knobs still deliver their desiderata when the device
 * misbehaves. An LC-app and a set of BE-apps share one SSD; the BE
 * tenant's LBA range sits on degraded media (read-retry ladders, grown
 * bad blocks, latency spikes), the device may thermally throttle, and
 * the host enforces NVMe command timeouts with abort + requeue. Each
 * knob runs twice — healthy and degraded — with identical seeds, and the
 * result reports whether the LC tail latency and the aggregate bandwidth
 * survive the degradation.
 */

#ifndef ISOL_ISOLBENCH_D5_DEGRADATION_HH
#define ISOL_ISOLBENCH_D5_DEGRADATION_HH

#include <vector>

#include "fault/fault.hh"
#include "isolbench/scenario.hh"
#include "stats/table.hh"

namespace isol::isolbench
{

/** Options for one degradation run. */
struct DegradationOptions
{
    uint32_t num_be_apps = 4; //!< best-effort apps (reads + writes)
    uint32_t num_cores = 10;
    SimTime duration = msToNs(1200);
    SimTime warmup = msToNs(300);
    uint64_t seed = 1;
    /** Fault families injected in the degraded run. */
    fault::Profile profile = fault::Profile::kAll;
    /** Device under test (shrink for fast smoke runs). */
    ssd::SsdConfig device = ssd::samsung980ProLike();
};

/** Result of one healthy-vs-degraded knob evaluation. */
struct DegradationResult
{
    Knob knob = Knob::kNone;
    fault::Profile profile = fault::Profile::kAll;

    // LC-app P99 read latency (us) and bandwidths (GiB/s).
    double healthy_lc_p99_us = 0.0;
    double degraded_lc_p99_us = 0.0;
    double healthy_be_gibs = 0.0;
    double degraded_be_gibs = 0.0;
    double healthy_agg_gibs = 0.0;
    double degraded_agg_gibs = 0.0;

    // Fault counters observed in the degraded run (device + host).
    uint64_t read_retries = 0;
    uint64_t uncorrectable = 0;
    uint64_t remapped_blocks = 0;
    uint64_t timeouts = 0;
    uint64_t requeues = 0;
    uint64_t retry_successes = 0;
    double throttle_ms = 0.0;

    /** LC P99 under degradation stays within 2x healthy + 100 us. */
    bool latency_preserved = false;

    /** Degraded aggregate bandwidth stays >= 0.6x healthy. */
    bool bandwidth_preserved = false;
};

/**
 * Evaluate `knob` (configured for strong LC prioritization, as in D4)
 * under the degradation profile in `opts`. Runs a healthy and a degraded
 * scenario with identical seeds and workloads.
 */
DegradationResult runDegradation(Knob knob,
                                 const DegradationOptions &opts = {});

/** Render a set of degradation results as one table. */
stats::Table degradationTable(
    const std::vector<DegradationResult> &results);

} // namespace isol::isolbench

#endif // ISOL_ISOLBENCH_D5_DEGRADATION_HH
