/**
 * @file
 * Runtime invariant checker: an opt-in correctness oracle wired into the
 * block-layer gates and the elevator dispatch path.
 *
 * Post-run validation (isolbench/validate.hh) can only look at final
 * counters; this layer checks structural invariants *while* the pipeline
 * runs, so a bug trips at the exact event that introduced it instead of
 * surfacing as a mysteriously skewed figure two seconds of simulated
 * time later:
 *
 *  - request conservation per cgroup: completions never outrun
 *    submissions (submitted = completed + in-flight);
 *  - io.cost vtime monotonicity: a group's consumed virtual time never
 *    moves backwards;
 *  - io.max token buckets: `next_free` is non-negative and monotone
 *    (consuming credit can only push the horizon forward);
 *  - hierarchical conservation: a parent's charge total covers the sum
 *    of its children's (children are only ever charged via walks that
 *    charge every ancestor, so a child sum exceeding the parent grant
 *    means a charge/refund skipped a level);
 *  - io.latency window accounting: per-group in-flight respects the
 *    queue-depth limit on admission and never underflows on completion;
 *  - elevator no-lost/no-duplicated-request: every inserted request is
 *    dispatched exactly once and never re-inserted while pending.
 *
 * Checking is strictly opt-in (ScenarioConfig::check_invariants or the
 * `ISOL_CHECK_INVARIANTS` env var / `--check-invariants` flag): hooks
 * are a single null-pointer test when disabled, so the default build
 * pays nothing. A violation throws InvariantViolation immediately; it
 * propagates out of the sweep and fails the bench with the violation
 * on stderr.
 *
 * The checker lives in sim/ and is deliberately blind to the block
 * layer's types: call sites identify groups, series, and requests by
 * opaque pointers plus human-readable labels, which keeps the layering
 * acyclic (blk -> sim, never sim -> blk).
 */

#ifndef ISOL_SIM_INVARIANTS_HH
#define ISOL_SIM_INVARIANTS_HH

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace isol::sim
{

/** Thrown on the first violated invariant; message carries the blame. */
class InvariantViolation : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Process-wide default for ScenarioConfig::check_invariants: true when
 * `ISOL_CHECK_INVARIANTS` is set (non-empty, not "0") or after
 * setCheckInvariantsDefault(true) (the `--check-invariants` flag).
 */
bool checkInvariantsDefault();
void setCheckInvariantsDefault(bool on);

/**
 * One scenario's invariant state. Owned by the Scenario, shared by every
 * gate of every device in it (keys are globally unique pointers), and
 * single-threaded like the simulation itself.
 */
class InvariantChecker
{
  public:
    /** @param context scenario name prefixed to violation messages */
    explicit InvariantChecker(std::string context);

    // --- Request conservation (per cgroup) ---

    /** A request of `group` entered the pipeline. */
    void onSubmit(const void *group, const std::string &label);

    /** A request of `group` completed. */
    void onComplete(const void *group);

    // --- Generic building blocks ---

    /** Count one check; throw InvariantViolation unless `ok`. */
    void require(bool ok, const char *what, const std::string &detail);

    /**
     * Assert a series never decreases. The caller owns the series
     * storage (`last`, initially 0 — which also makes the first
     * observation a non-negativity check) and keeps it alongside the
     * state the series describes; with thousands of tracked series,
     * that beats a central pointer-keyed map whose keys would dangle
     * when gate state moves on arena growth or swap-remove.
     */
    void checkMonotonicAt(double &last, const char *what,
                          const std::string &label, double value);

    // --- Hierarchical conservation ---

    /**
     * Assert that the children of one node consumed no more than the
     * node itself was charged (`child_sum` <= `parent_total` within a
     * relative epsilon for float accumulation). Gates call this along
     * their O(depth) charge walks, so a skipped ancestor level trips at
     * the first request it misaccounts.
     */
    void checkHierarchy(const char *what, const std::string &label,
                        double child_sum, double parent_total);

    // --- Elevator conservation ---

    /** `req` was inserted into the elevator (must not be pending). */
    void onElevatorInsert(const void *req);

    /** `req` was dispatched by the elevator (must be pending). */
    void onElevatorDispatch(const void *req);

    // --- End of run ---

    /**
     * Terminal consistency: per-group in-flight derived from the
     * conservation counters and the elevator's pending set must both be
     * bounded by `max_outstanding` (the total configured iodepth).
     */
    void finalCheck(uint64_t max_outstanding);

    /** Total individual checks performed (profiling/coverage counter). */
    uint64_t checksPerformed() const { return checks_; }

  private:
    struct Group
    {
        std::string label;
        uint64_t submitted = 0;
        uint64_t completed = 0;
    };

    [[noreturn]] void violate(const char *what, const std::string &detail);

    Group &groupFor(const void *group, const std::string &label);

    std::string context_;
    uint64_t checks_ = 0;

    /** Group states in creation order: finalCheck() walks the deque so
     *  violation blame never depends on pointer hash order. */
    // Lookup-only index into groups_; iteration always walks the
    // creation-order deque.
    std::unordered_map<const void *, size_t> group_index_;
    std::deque<Group> groups_;

    // Membership tests only, never iterated.
    std::unordered_set<const void *> elevator_pending_;
};

} // namespace isol::sim

#endif // ISOL_SIM_INVARIANTS_HH
