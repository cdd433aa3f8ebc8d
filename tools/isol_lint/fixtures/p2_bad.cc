// isol-lint fixture: P2 known-bad — a deferred callback that
// default-captures by reference. The callback outlives the frame, so
// `completions` dangles by the time it runs.
#include <functional>

struct Sched
{
    void after(long long delay, std::function<void()> cb);
};

int
arm(Sched &sched)
{
    int completions = 0;
    long long wait_ns = 0;
    sched.after(wait_ns, [&] { ++completions; });
    return completions;
}
