#include "sim/invariants.hh"

#include <atomic>
#include <cstdlib>

#include "common/logging.hh"
#include "common/strings.hh"

namespace isol::sim
{

namespace
{

// Process-wide opt-in flag resolved once from the environment / CLI
// before any scenario is built; never flipped mid-sweep, so it cannot
// make two runs of one scenario diverge.
std::atomic<int> g_check_default{-1};

} // namespace

bool
checkInvariantsDefault()
{
    int v = g_check_default.load(std::memory_order_relaxed);
    if (v < 0) {
        const char *env = std::getenv("ISOL_CHECK_INVARIANTS");
        v = env != nullptr && env[0] != '\0' && env[0] != '0' ? 1 : 0;
        g_check_default.store(v, std::memory_order_relaxed);
    }
    return v > 0;
}

void
setCheckInvariantsDefault(bool on)
{
    g_check_default.store(on ? 1 : 0, std::memory_order_relaxed);
}

InvariantChecker::InvariantChecker(std::string context)
    : context_(std::move(context))
{
}

void
InvariantChecker::violate(const char *what, const std::string &detail)
{
    throw InvariantViolation(strCat("invariant '", what, "' violated in '",
                                    context_, "': ", detail));
}

void
InvariantChecker::require(bool ok, const char *what,
                          const std::string &detail)
{
    ++checks_;
    if (!ok)
        violate(what, detail);
}

InvariantChecker::Group &
InvariantChecker::groupFor(const void *group, const std::string &label)
{
    auto it = group_index_.find(group);
    if (it != group_index_.end())
        return groups_[it->second];
    group_index_.emplace(group, groups_.size());
    groups_.emplace_back();
    groups_.back().label = label;
    return groups_.back();
}

void
InvariantChecker::onSubmit(const void *group, const std::string &label)
{
    ++checks_;
    ++groupFor(group, label).submitted;
}

void
InvariantChecker::onComplete(const void *group)
{
    Group &g = groupFor(group, "?");
    require(g.completed < g.submitted, "request conservation",
            strCat("cgroup '", g.label, "': completion #",
                   g.completed + 1, " outruns ", g.submitted,
                   " submissions"));
    ++g.completed;
}

void
InvariantChecker::checkMonotonicAt(double &last, const char *what,
                                   const std::string &label, double value)
{
    // Tiny backward drift tolerance for double-typed series (io.cost
    // vtime sums floating-point charges).
    constexpr double kEps = 1e-6;
    require(value >= last - kEps, what,
            strCat(label, ": ", formatDouble(value, 3),
                   " moved backwards from ", formatDouble(last, 3)));
    last = value;
}

void
InvariantChecker::checkHierarchy(const char *what, const std::string &label,
                                 double child_sum, double parent_total)
{
    // Relative tolerance: both sides accumulate floating-point charges
    // request by request, so allow proportional drift plus a floor.
    double slack = 1e-9 * (parent_total < 1.0 ? 1.0 : parent_total) + 1e-6;
    require(child_sum <= parent_total + slack, what,
            strCat(label, ": children consumed ",
                   formatDouble(child_sum, 3), " but the parent was only "
                   "charged ", formatDouble(parent_total, 3)));
}

void
InvariantChecker::onElevatorInsert(const void *req)
{
    require(elevator_pending_.insert(req).second,
            "elevator no-duplicated-request",
            "request inserted while already pending in the elevator");
}

void
InvariantChecker::onElevatorDispatch(const void *req)
{
    require(elevator_pending_.erase(req) == 1,
            "elevator no-lost-request",
            "dispatched a request the elevator never admitted (or "
            "dispatched it twice)");
}

void
InvariantChecker::finalCheck(uint64_t max_outstanding)
{
    uint64_t outstanding = 0;
    for (const Group &g : groups_) {
        require(g.completed <= g.submitted, "request conservation",
                strCat("cgroup '", g.label, "': ", g.completed,
                       " completed > ", g.submitted, " submitted"));
        outstanding += g.submitted - g.completed;
    }
    require(outstanding <= max_outstanding, "request conservation",
            strCat(outstanding, " requests still in flight at end of "
                                "run, but total configured iodepth is ",
                   max_outstanding));
    require(elevator_pending_.size() <= max_outstanding,
            "elevator no-lost-request",
            strCat(elevator_pending_.size(),
                   " requests parked in elevators at end of run exceed "
                   "the total configured iodepth ",
                   max_outstanding));
}

} // namespace isol::sim
