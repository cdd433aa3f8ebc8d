/**
 * @file
 * Binned time series for bandwidth/throughput-over-time plots (Fig 2) and
 * for windowed statistics (burst-response detection).
 */

#ifndef ISOL_STATS_TIMESERIES_HH
#define ISOL_STATS_TIMESERIES_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace isol::stats
{

/**
 * Accumulates a quantity (bytes, I/O count, busy-ns...) into fixed-width
 * time bins so we can plot it as a rate over time.
 */
class TimeSeries
{
  public:
    /** @param bin_width width of each bin in simulated ns (default 100ms) */
    explicit TimeSeries(SimTime bin_width = msToNs(100));

    /** Add `amount` at simulated time `when`. */
    void add(SimTime when, uint64_t amount);

    /** Number of bins (0..highest time seen). */
    size_t numBins() const { return bins_.size(); }

    /** Raw accumulated amount in bin `i` (0 if out of range). */
    uint64_t binTotal(size_t i) const;

    /** Sum over all bins. */
    uint64_t total() const { return total_; }

    /** Sum over bins whose start time lies in [from, to). */
    uint64_t totalBetween(SimTime from, SimTime to) const;

    /**
     * Per-bin rate in units/second, e.g. bytes/s when `add` was fed bytes.
     * One entry per bin.
     */
    std::vector<double> ratePerSecond() const;

    /** Mean rate (units/second) over [from, to). */
    double meanRate(SimTime from, SimTime to) const;

  private:
    SimTime bin_width_;
    std::vector<uint64_t> bins_;
    uint64_t total_ = 0;
};

} // namespace isol::stats

#endif // ISOL_STATS_TIMESERIES_HH
