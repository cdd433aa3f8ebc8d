/**
 * @file
 * Kyber elevator model — an extension beyond the paper's evaluated
 * knobs.
 *
 * The paper's related work ([75], Ren et al., ICPE'24) characterises
 * BFQ, MQ-Deadline and Kyber as the three NVMe-era Linux schedulers;
 * the paper itself evaluates only the two with cgroup knobs. Kyber has
 * no cgroup integration, but including it lets isol-bench-sim reproduce
 * the scheduler-comparison studies too.
 *
 * Mechanism (block/kyber-iosched.c): requests are split into scheduling
 * domains (reads, writes, other) with per-domain token depths. A
 * latency-tuning window measures per-domain latencies against targets
 * (2 ms reads, 10 ms writes by default) and scales the *other* domains'
 * depths down when reads miss their target — Kyber throttles writes to
 * protect reads. Kyber is multi-queue friendly: no single dispatch
 * lock, so BlockDevice assigns it no serialized dispatch cost.
 */

#ifndef ISOL_BLK_KYBER_HH
#define ISOL_BLK_KYBER_HH

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "blk/elevator.hh"
#include "common/ring.hh"
#include "sim/simulator.hh"

namespace isol::blk
{

/** Tunables mirroring /sys/block/<dev>/queue/iosched for kyber. */
struct KyberParams
{
    SimTime read_lat_target = msToNs(2);
    SimTime write_lat_target = msToNs(10);
    uint32_t read_depth = 256;
    uint32_t write_depth = 128;
    SimTime tune_window = msToNs(100);
};

/**
 * Kyber scheduler.
 */
class Kyber : public Elevator
{
  public:
    explicit Kyber(sim::Simulator &sim, KyberParams params = {});
    ~Kyber() override;

    void insert(Request *req) override;
    Request *selectNext() override;
    void onComplete(Request *req) override;
    bool empty() const override;
    size_t queued() const override;

    /** Current effective write-domain depth (white-box testing). */
    uint32_t writeDepth() const { return write_depth_; }

  private:
    enum Domain : int { kReadDom = 0, kWriteDom = 1, kNumDomains = 2 };

    struct DomainState
    {
        common::RingDeque<Request *> fifo;
        uint32_t inflight = 0;
        /** Latency samples (completion - insert) this window. */
        std::vector<SimTime> window_lat;
    };

    static Domain domainOf(const Request &req);
    uint32_t depthOf(Domain dom) const;

    /** P99-ish latency of a window sample set (0 when too few). */
    static SimTime windowP99(std::vector<SimTime> &samples);

    void tune();

    sim::Simulator &sim_;
    KyberParams params_;
    std::array<DomainState, kNumDomains> domains_;
    uint32_t write_depth_; //!< scaled between 1 and params.write_depth
    std::unique_ptr<sim::PeriodicTimer> timer_;
    size_t queued_ = 0;
};

} // namespace isol::blk

#endif // ISOL_BLK_KYBER_HH
