/**
 * @file
 * Post-run invariant checking for scenario results.
 *
 * A silently-wrong result is worse than a crashed task: it flows into a
 * figure and misleads. Every Scenario::run() therefore ends with a pass
 * over cheap structural invariants — I/O conservation (submitted ==
 * completed + outstanding, failed <= completed), non-negative finite
 * throughput, monotone latency percentiles (p50 <= p95 <= p99), CPU
 * utilisation inside [0, 1] — and a violation raises a structured
 * InvariantViolation. It propagates out of the sweep, so the bench
 * exits non-zero instead of printing the bad result.
 *
 * The individual checks are pure functions over plain numbers so tests
 * can feed them doctored results without building a simulation.
 */

#ifndef ISOL_ISOLBENCH_VALIDATE_HH
#define ISOL_ISOLBENCH_VALIDATE_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace isol::isolbench
{

class Scenario;

namespace validate
{

/** Thrown by enforce(): a completed run produced inconsistent results. */
class InvariantViolation : public std::runtime_error
{
  public:
    explicit InvariantViolation(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** One failed invariant: which check, and the offending numbers. */
struct Issue
{
    std::string check;
    std::string detail;
};

/**
 * I/O conservation for one device: every submitted request is either
 * completed (failed requests also complete, with an error) or still
 * outstanding, and the outstanding population cannot exceed the total
 * queue depth of the apps driving the device.
 */
void checkConservation(std::vector<Issue> &issues, const std::string &who,
                       uint64_t submitted, uint64_t completed,
                       uint64_t failed, uint64_t max_outstanding);

/** Throughput must be finite and non-negative. */
void checkThroughput(std::vector<Issue> &issues, const std::string &who,
                     double gibs);

/** Latency percentiles must be non-negative and monotone in p. */
void checkPercentiles(std::vector<Issue> &issues, const std::string &who,
                      int64_t p50, int64_t p95, int64_t p99);

/** A utilisation-style ratio must lie in [0, 1]. */
void checkRatio(std::vector<Issue> &issues, const std::string &who,
                double value);

/** Run every invariant over a completed scenario. */
std::vector<Issue> checkScenario(Scenario &scenario);

/** Throw InvariantViolation listing `issues`; no-op when empty. */
void enforce(const std::vector<Issue> &issues, const std::string &context);

} // namespace validate

} // namespace isol::isolbench

#endif // ISOL_ISOLBENCH_VALIDATE_HH
